"""Symmetric interior-penalty DG assembly, sparse solve, and stability probes.

The bilinear form sums element stiffness integrals and, over every edge
(boundary edges included, where jump and average both mean the trace),
the consistency/symmetry terms pairing the average flux with the solution
jump, plus the penalty sigma0*gamma/h on the jumps, gamma = beta_plus^2 /
beta_minus.  Dirichlet data enters weakly through the boundary linear form.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import NonConvergence, SingularGram
from .ife_space import SpaceSet, at_points
from .quadrature import cut_edge_rule


@dataclass
class SipdgSystem:
    """Assembled sparse system S c = F; S is stored in the CSC format its
    sparse LU factors."""

    S: sp.csc_matrix
    F: np.ndarray
    energy_gram: sp.csr_matrix | None = None


def penalty_weight(spaces: SpaceSet, sigma0: float) -> float:
    """The jump penalty sigma0 * gamma / h, gamma = beta_plus^2 / beta_minus."""
    gamma = spaces.beta_plus**2 / spaces.beta_minus
    return sigma0 * gamma / spaces.mesh.h


def edge_segments(spaces: SpaceSet, k: int, q: int):
    """Quadrature segments of edge k with branch labels: [(pts, w, side)]."""
    mesh, (edge, t) = spaces.mesh, spaces.tags.crossings
    ts = t[(edge == k) & (t > 1e-12) & (t < 1.0 - 1e-12)]   # corners split nothing
    segs = cut_edge_rule(mesh.edge_a[k], mesh.edge_b[k], ts, q)
    _, first, sides, *_ = spaces._segments()
    return [(seg.points, seg.weights, side)
            for seg, side in zip(segs, sides[first[k]:first[k + 1]].tolist())]


def _stiffness(spaces: SpaceSet, sides, weights, grads):
    """beta-weighted gradient Gram of an evaluated piece or of each of a stack."""
    return spaces.beta_of(sides)[..., None, None] * np.einsum(
        "...bpk,...p,...cpk->...bc", grads, weights, grads)


def _edge_terms(spaces: SpaceSet):
    """Per edge group: (edges, rows, points, weights, sides, average weight,
    members [(sign, values, beta-weighted normal derivatives)])."""
    normal = spaces.mesh.edge_normal
    terms = []
    for ks, rows, pts, w, sides, members, pos in spaces.edge_groups():
        beta = spaces.beta_of(sides[:len(pos)])[:, None, None]
        terms.append((ks, rows, pts, w, sides, 1.0 if len(members) == 1 else 0.5,
                      [(sign, vals, beta * np.einsum("ebpk,ek->ebp", grads, normal[ks[:len(pos)]]))
                       for sign, vals, grads in members]))
    return terms


def _csr(spaces: SpaceSet, K, terms, block):
    """Sum, as a CSR matrix on the element-major dofs, of the element blocks
    K (none, or one per element in element order) and then of block(weights,
    average weight, member a, member b) for every member pair of every edge
    segment: computed once per value row of each group of `terms`, and
    entered in the order of a loop over edges, segments, a and b."""
    nl, n, elems = spaces.n_local, spaces.n_dofs, spaces.mesh.edge_elems
    blocks, take, entries, at = [], [], [], 0
    for ks, seg_rows, _, w, _, avg, members in terms:
        lead = len(members[0][1])
        for a, ma in enumerate(members):
            for b, mb in enumerate(members):
                blocks.append(block(w[:lead, None], avg, ma, mb))
                take.append(np.broadcast_to(at + np.arange(lead), len(ks)))
                entries.append((elems[ks, a], elems[ks, b], 4 * seg_rows + 2 * a + b))
                at += lead
    rows, cols, keys = (np.concatenate(x) for x in zip(*entries))
    order = np.argsort(keys)
    blocks = np.concatenate([K, np.concatenate(blocks)[np.concatenate(take)[order]]])
    rows, cols = (np.concatenate([np.arange(len(K)), x[order]]) for x in (rows, cols))
    local = np.arange(nl)
    r = (rows[:, None] * nl + np.repeat(local, nl)).ravel()
    c = (cols[:, None] * nl + np.tile(local, nl)).ravel()
    return sp.coo_matrix((blocks.ravel(), (r, c)), shape=(n, n)).tocsr()


def assemble(spaces: SpaceSet, sigma0: float, f_source, g_dirichlet,
             with_norm_grams: bool = False) -> SipdgSystem:
    """Assemble the penalized system; optionally also the energy-norm Gram.

    f_source(points, side) and g_dirichlet(points, side) return values at
    quadrature points, side +-1 per point; each is called once per level, on
    the points of all its volume groups or boundary segments.
    The energy Gram realizes the broken norm (gradient + penalized jumps)
    plus weighted flux averages.  Blocks are computed once per group of
    plain elements or edges and row by row in the stacked cut groups; S and
    the Gram are bit-identical to an element-by-element loop.
    """
    mesh, nl = spaces.mesh, spaces.n_local
    pen = penalty_weight(spaces, sigma0)

    # an interface element's two pieces add in either order from zero
    K = np.zeros((mesh.n_elements, nl, nl))
    F = np.zeros(spaces.n_dofs)
    groups = spaces.volume_groups()
    sources = at_points(f_source, [(pts, sides) for _, pts, _, sides, *_ in groups])
    for (elems, _, w, sides, vals, grads, _), f in zip(groups, sources):
        np.add.at(K, elems, _stiffness(spaces, sides[:len(vals)], w[:len(vals)], grads))
        x = w * f
        np.add.at(F.reshape(-1, nl), elems, np.matmul(vals, x[..., None])[..., 0])

    def sipdg(w, avg, a, b):
        (sa, Va, Ba), (sb, Vb, Bb) = a, b
        return (-avg * sa * (Va * w) @ Bb.mT - avg * sb * (Ba * w) @ Vb.mT
                + pen * sa * sb * (Va * w) @ Vb.mT)

    terms = _edge_terms(spaces)
    # Dirichlet data, added boundary segment by boundary segment in row order
    boundary = [t for t in terms if len(t[-1]) == 1]       # one member: a boundary edge
    data = at_points(g_dirichlet, [(pts, sides) for _, _, pts, _, sides, *_ in boundary])
    rows, elems, parts = [], [], []
    for (ks, seg_rows, _, w, _, _, ((_, V, B),)), g in zip(boundary, data):
        parts.append(np.matmul(-B + pen * V, (w * g)[..., None])[..., 0])
        rows.append(seg_rows)
        elems.append(mesh.edge_elems[ks, 0])
    order = np.argsort(np.concatenate(rows))
    np.add.at(F.reshape(-1, nl), np.concatenate(elems)[order], np.concatenate(parts)[order])

    system = SipdgSystem(S=_csr(spaces, K, terms, sipdg).tocsc(), F=F)
    if with_norm_grams:
        norm_gram = _csr(spaces, K, terms, lambda w, avg, a, b:
                         pen * a[0] * b[0] * (a[1] * w) @ b[1].mT)
        system.energy_gram = norm_gram + _csr(spaces, K[:0], terms, lambda w, avg, a, b:
                                              (avg * avg / pen) * (a[2] * w) @ b[2].mT)
    return system


def solve(system: SipdgSystem) -> np.ndarray:
    """Direct sparse solve with a residual contract of 1e-11."""
    c = spla.spsolve(system.S, system.F)
    scale = np.max(np.abs(system.F), initial=0.0) or 1.0    # keeps the norms below overflow
    resid = (np.linalg.norm((system.S @ c - system.F) / scale)
             / max(np.linalg.norm(system.F / scale), 1e-300))
    if not resid <= 1e-11:     # a NaN residual fails too
        raise NonConvergence(f"linear solve residual {resid:.2e} > 1e-11")
    return c


def _largest_eigenvalue(b, a) -> float:
    """Largest eigenvalue of the pencil (b, a), bit for bit as scipy's eigh(b, a,
    eigvals_only=True)[-1]: its LAPACK driver (dsygvd for float64) and arguments,
    without eigh's per-call driver lookup and checks; a driver failure raises LinAlgError."""
    w, _, info = scipy.linalg.lapack.dsygvd(b, a, itype=1, jobz="N", uplo="L")
    if info:
        raise np.linalg.LinAlgError(f"generalized eigensolve failed: LAPACK sygvd info = {info}")
    return w[-1]


def trace_constant(spaces: SpaceSet, elems) -> np.ndarray:
    """Normalized trace constants of distinct elements elems, (K,), in one pass.

    Largest generalized eigenvalue of the boundary flux Gram against the
    weighted stiffness (constants deflated), scaled by sqrt(h)*sqrt(beta-)/
    beta+; bounded uniformly in h, cut position and beta.  The Grams add
    each element's pieces and face segments in turn, as an element loop
    does.  Raises ValueError naming the first repeated element, and
    SingularGram naming the first element whose stiffness has no
    non-constant block.
    """
    elems, nl = np.asarray(elems, dtype=int), spaces.n_local
    _, first = np.unique(elems, return_index=True)
    if len(first) < len(elems):
        # one row per element: a repeat would take the Grams of its first
        # occurrence, leaving that one singular
        e = elems[np.setdiff1d(np.arange(len(elems)), first)[0]]
        raise ValueError(f"element {e} is repeated; the elements must be distinct")
    beta2 = {s: float(spaces.beta_of(s))**2 for s in (1, -1)}
    # the last row gathers the interface rows of elements not asked for
    A, B = np.zeros((2, len(elems) + 1, nl, nl))
    for G, volume in ((A, True), (B, False)):
        for owner, sides, w, grads in spaces.gradients(elems, volume):
            np.add.at(G, owner, _stiffness(spaces, sides, w, grads) if volume else
                      np.array([beta2[s] for s in sides])[:, None, None]
                      * np.einsum("ebpk,ep,ecpk->ebc", grads, w, grads))
    lam, vecs = np.linalg.eigh(A[:-1])
    keep = lam > 1e-10 * lam[:, -1:]
    bad = np.flatnonzero(~keep.any(axis=1))
    if len(bad):
        raise SingularGram(f"element {elems[bad[0]]}: stiffness has no non-constant block")
    # the deflated problems differ in size: one generalized eigensolve each
    lam_max = [_largest_eigenvalue(W.T @ b @ W, W.T @ a @ W)
               for a, b, W in zip(A, B, (v[:, k] for v, k in zip(vecs, keep)))]
    return (np.sqrt(np.array(lam_max) * spaces.mesh.h) * np.sqrt(spaces.beta_minus)
            / spaces.beta_plus)


def auto_sigma0(spaces: SpaceSet) -> tuple[float, float]:
    """Penalty from the trace probe: sigma0 = 4*max_K C_t(K)^2 + 1.

    Probes every interface element plus one uncut element; returns
    (sigma0, max C_t).  Satisfies the coercivity requirement
    sigma0 > C_t^2 + 1/2 with margin.
    """
    elems = np.concatenate([spaces.tags.interface.elements, np.flatnonzero(spaces.tags.tags)[:1]])
    ct = float(np.max(trace_constant(spaces, elems)))
    return 4.0 * ct**2 + 1.0, ct


def coercivity_ratio(system: SipdgSystem) -> float:
    """min over the discrete space of a_h(v, v) / |||v|||_h^2: the smallest eigenvalue of
    the symmetrised S against the energy Gram G, from one shift-invert Lanczos at -1.
    S + G is positive definite, so every ratio exceeds -1; the nearest -1 is the least."""
    if system.energy_gram is None:
        raise ValueError("assemble with with_norm_grams=True first")
    S, G = (0.5 * (A + A.T) for A in (system.S, system.energy_gram))
    # ARPACK's default start vector is random; a fixed one repeats the output
    w = spla.eigsh(S, k=1, M=G, sigma=-1.0, v0=np.ones(S.shape[0]), return_eigenvectors=False)
    return float(w[0])
