"""Dense reference radical filtration, kept as a test oracle.

Layer one over a complete list of indecomposables is every Hom space between
distinct nodes plus the radical of each endomorphism algebra (trace-form
kernel); layer n+1 is spanned by composites of a layer-n morphism after a
layer-one morphism, summed over all intermediate nodes.  It computes every
pair and knows nothing of almost split sequences, so it checks the sparse
filtration in ``quivrad.radical`` independently.  Too slow for ``ex_2_5``.
"""
from quivrad.errors import InconsistencyError
from quivrad.linalg import Subspace
from quivrad.rep import end_radical, hom_space


class DenseFiltration:
    def __init__(self, reps):
        self.reps = list(reps)
        n = len(self.reps)
        self.hom = {}
        for i in range(n):
            for j in range(n):
                hs = hom_space(self.reps[i], self.reps[j])
                if hs.dim:
                    self.hom[(i, j)] = hs
        self.chains = {}
        self._rad1_out = {}
        for (i, j), hs in self.hom.items():
            first = end_radical(hs) if i == j else Subspace.full(hs.dim)
            if first.dim:
                self.chains[(i, j)] = [first]
                self._rad1_out.setdefault(i, []).append((j, first))
        self.depth = 1
        self.complete = not self.chains
        self._tensors = {}

    def _tensor(self, i, k, j):
        """coords in Hom(i, j) of (basis v of Hom(k, j)) ∘ (basis u of Hom(i, k))."""
        key = (i, k, j)
        if key not in self._tensors:
            hik, hkj, hij = self.hom[(i, k)], self.hom[(k, j)], self.hom[(i, j)]
            tensor = []
            for f in hik.basis:
                row = []
                for g in hkj.basis:
                    coords = hij.coords(g @ f)
                    if coords is None:
                        raise InconsistencyError("composite escaped its Hom space")
                    row.append(coords)
                tensor.append(row)
            self._tensors[key] = tensor
        return self._tensors[key]

    def _advance(self):
        """Layer depth+1 of every pair from layer depth and layer one."""
        n = self.depth
        cur_by_src = {}
        for (k, j), chain in self.chains.items():
            if len(chain) >= n:
                cur_by_src.setdefault(k, []).append((j, chain[n - 1]))
        grew = False
        for i, outs in self._rad1_out.items():
            acc = {}
            for k, s1 in outs:
                for j, sn in cur_by_src.get(k, ()):
                    if (i, j) not in self.hom:
                        continue
                    tensor = self._tensor(i, k, j)
                    vecs = acc.setdefault(j, [])
                    for fu in s1.basis:
                        for gv in sn.basis:
                            out = [0] * self.hom[(i, j)].dim
                            for u, cu in enumerate(fu):
                                for v, cv in enumerate(gv):
                                    if cu and cv:
                                        for t, x in enumerate(tensor[u][v]):
                                            out[t] += cu * cv * x
                            vecs.append(out)
            for j, vecs in acc.items():
                sub = Subspace.from_vectors(self.hom[(i, j)].dim, vecs)
                if sub.dim:
                    self.chains[(i, j)].append(sub)
                    grew = True
        self.depth += 1
        self.complete = not grew

    def ensure_depth(self, n):
        while not self.complete and self.depth < n:
            self._advance()

    def layers_computed(self):
        return max((len(c) for c in self.chains.values()), default=0)

    def dim_irr(self, i, j):
        """dim R(i, j) - dim R²(i, j)."""
        self.ensure_depth(2)
        chain = self.chains.get((i, j), [])
        return (chain[0].dim if chain else 0) - (chain[1].dim if len(chain) > 1 else 0)
