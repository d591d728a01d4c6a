"""The rank-two witness modules of the toupie reduction, kept as a test.

For the three-branch toupie with one zero-relation branch, the argument for
rule D builds at each involved zero-branch vertex z an indecomposable module
with a cycle through S_z that lies deep in the radical.  The package
certifies rule D from the radical rows alone (``check --theorem D``); these
modules check that argument against the computed filtration.
"""
from dataclasses import dataclass

from quivrad.errors import InconsistencyError, MethodInapplicableError
from quivrad.linalg import RatMatrix
from quivrad.rep import (
    ModuleMorphism,
    Representation,
    find_isomorphism,
    hom_space,
    is_indecomposable,
)

from dense_oracle import (injective, is_epi, is_mono, morphism_from_projective,
                          morphism_length, simple)


def morphism_to_injective(pres, a, M, functional):
    """The morphism M -> I_a induced by a linear functional on M_a."""
    a = str(a)
    model = pres.model()
    I = injective(pres, a)
    rows_cache = {(): list(functional)}

    def row(arrows: tuple) -> list:
        got = rows_cache.get(arrows)
        if got is None:
            # functional x -> row(tail)(path-action after first arrow applied)
            tail = row(arrows[1:])
            mat = M.matrices[arrows[0]]
            got = [sum(l * x for l, x in zip(tail, col)) for col in zip(*mat.data)] \
                if mat.data else [0] * mat.cols
            rows_cache[arrows] = got
        return got

    maps = {}
    for v in pres.quiver.vertices:
        rows = [row(q.arrows) for q in model.basis(v, a)]
        maps[v] = RatMatrix(rows, cols=M.dims[v]) if rows else RatMatrix.zeros(0, M.dims[v])
    return ModuleMorphism(M, I, maps, check=False)


@dataclass
class ToupieWitness:
    """Witness cycle through a zero-relation vertex of a toupie algebra."""
    vertex: str
    module: Representation
    rho: ModuleMorphism          # the cycle module -> module
    phi: ModuleMorphism          # mono P_vertex -> module
    psi: ModuleMorphism          # epi module -> I_vertex
    expected_layer: int          # 2 * (arrow count of the zero-relation branch)
    rho_layer: int               # actual radical length of the cycle
    end_dim: int

    def verified(self) -> bool:
        return (not self.rho.is_zero() and self.rho_layer >= self.expected_layer
                and self.end_dim == 2)


def build_toupie_witness(filt, shape, i: int) -> ToupieWitness:
    """Construct the rank-two witness module at the i-th zero-branch vertex.

    The module doubles the zero-relation vertex z_i, with the branch arrow
    into z_i hitting the second coordinate and the arrow out of z_i reading
    the first; the cycle factors through S_{z_i} and sits in radical layer
    2(n3+1) where n3+1 is the zero branch's arrow count.
    """
    pres = filt.pres
    g = shape.grafo
    if g is None:
        raise MethodInapplicableError("witness needs the zero-relation toupie pattern")
    if not (g.j <= i <= g.j + g.t - 1):
        raise ValueError(f"index {i} is not an involved zero-branch position")
    branch = shape.branches[g.zero_branch]
    z = branch.vertices[i - 1]
    dims = {v: 1 for v in pres.quiver.vertices}
    dims[z] = 2
    mats = {}
    arrow_in = branch.arrows[i - 1]   # ends at z_i
    arrow_out = branch.arrows[i]      # starts at z_i
    for arr in pres.quiver.arrows:
        if arr.name == arrow_in:
            mats[arr.name] = RatMatrix([[0], [1]])
        elif arr.name == arrow_out:
            mats[arr.name] = RatMatrix([[1, 0]])
        else:
            rows, cols = dims[arr.target], dims[arr.source]
            mats[arr.name] = RatMatrix([[1 if r == c else 0 for c in range(cols)]
                                        for r in range(rows)])
    M = Representation(pres, dims, mats)  # checks the relations exactly
    if not is_indecomposable(M):
        raise InconsistencyError("witness module failed to be indecomposable")
    end_dim = hom_space(M, M).dim
    # cycle rho: project onto the top coordinate at z, re-embed into the socle
    pi_maps = {v: RatMatrix.zeros(1 if v == z else 0, dims[v]) for v in pres.quiver.vertices}
    pi_maps[z] = RatMatrix([[1, 0]])
    S = simple(pres, z)
    pi = ModuleMorphism(M, S, pi_maps)
    iota_maps = {v: RatMatrix.zeros(dims[v], 1 if v == z else 0) for v in pres.quiver.vertices}
    iota_maps[z] = RatMatrix([[0], [1]])
    iota = ModuleMorphism(S, M, iota_maps)
    rho = iota @ pi
    # the generator goes to the top coordinate: the socle coordinate would be
    # killed by the outgoing branch arrow and the map would not be mono
    phi = morphism_from_projective(pres, z, M, [1, 0])
    if not is_mono(phi):
        raise InconsistencyError("canonical inclusion of P into the witness is not mono")
    psi = None
    for functional in ([0, 1], [1, 0], [1, 1]):
        cand = morphism_to_injective(pres, z, M, functional)
        if is_epi(cand) and not (cand @ rho).is_zero():
            psi = cand
            break
    if psi is None:
        raise InconsistencyError("no epi onto the injective composing with the cycle")
    if (rho @ phi).is_zero():
        raise InconsistencyError("cycle kills the projective generator")
    expected = 2 * len(branch.arrows)
    for node_rep in filt.reps:  # pairwise non-isomorphic: the first hit is the node
        u = find_isomorphism(M, node_rep)  # None at once on another dimension vector
        if u is not None:
            break
    else:
        raise ValueError("no filtration node is isomorphic to the representation")
    rho_on_node = u @ rho @ u.inverse()
    layer = morphism_length(rho_on_node, filt)
    return ToupieWitness(z, M, rho, phi, psi, expected, layer, end_dim)
