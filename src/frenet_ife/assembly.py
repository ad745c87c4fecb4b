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

from .errors import NonConvergence, NotPositiveDefinite, SingularGram
from .ife_space import SpaceSet
from .quadrature import cut_edge_rule


@dataclass
class SipdgSystem:
    """Assembled sparse system S c = F with its penalty bookkeeping."""

    S: sp.csr_matrix
    F: np.ndarray
    sigma0: float
    gamma: float
    penalty: float
    spaces: SpaceSet
    norm_gram: sp.csr_matrix | None = None
    energy_gram: sp.csr_matrix | None = None


def edge_segments(spaces: SpaceSet, k: int, q: int):
    """Quadrature segments of edge k with branch labels: [(pts, w, side)]."""
    mesh = spaces.mesh
    segs = cut_edge_rule(mesh.edge_a[k], mesh.edge_b[k], spaces.tags.interior_cuts(k), q)
    return [(seg.points, seg.weights, side) for seg, side in zip(segs, spaces.segment_sides(k))]


def _stiffness(spaces: SpaceSet, side, weights, grads):
    """beta-weighted gradient Gram of one evaluated piece."""
    return float(spaces.beta_of(side)) * np.einsum("bpk,p,cpk->bc", grads, weights, grads)


def _edge_terms(spaces: SpaceSet, q_edge):
    """Per edge group: (edges, points, weights, side, average weight,
    members [(sign, values, beta-weighted normal derivatives)])."""
    mesh = spaces.mesh
    terms = []
    for ks, pts, w, side, members in spaces.edge_groups(q_edge):
        beta, n_e = float(spaces.beta_of(side)), mesh.edge_normal[ks[0]]
        terms.append((ks, pts, w, side, 1.0 if mesh.edge_is_boundary[ks[0]] else 0.5,
                      [(sign, vals, beta * np.einsum("bpk,k->bp", grads, n_e))
                       for _, sign, vals, grads in members]))
    return terms


def _csr(spaces: SpaceSet, K, terms, block):
    """Sum, as a CSR matrix on the element-major dofs, of the element blocks
    K (none, or one per element in element order) and then of block(weights,
    average weight, member a, member b) for every member pair of every edge
    segment: computed once per group of `terms`, and entered in the order of
    a loop over edges, segments, a and b."""
    nl, n, elems = spaces.layout.n_local, spaces.layout.total, spaces.mesh.edge_elems
    blocks, rows, cols, edges = [], [], [], []
    for ks, _, w, _, avg, members in terms:
        for a, ma in enumerate(members):
            for b, mb in enumerate(members):
                blocks.append(np.broadcast_to(block(w[0], avg, ma, mb), (len(ks), nl, nl)))
                rows.append(elems[ks, a])
                cols.append(elems[ks, b])
                edges.append(ks)
    order = np.argsort(np.concatenate(edges), kind="stable")
    diag = np.arange(len(K))
    blocks = np.concatenate([K, np.concatenate(blocks)[order]])
    rows, cols = (np.concatenate([diag, np.concatenate(x)[order]]) for x in (rows, cols))
    local = np.arange(nl)
    r = (rows[:, None] * nl + np.repeat(local, nl)).ravel()
    c = (cols[:, None] * nl + np.tile(local, nl)).ravel()
    return sp.coo_matrix((blocks.ravel(), (r, c)), shape=(n, n)).tocsr()


def assemble(spaces: SpaceSet, sigma0: float, f_source, g_dirichlet,
             q_vol: int | None = None, q_edge: int | None = None,
             with_norm_grams: bool = False) -> SipdgSystem:
    """Assemble the penalized system; optionally also the norm Gram matrices.

    f_source(points, side) and g_dirichlet(points, side) return values at
    quadrature points.  The norm Grams realize the broken norm (gradient +
    penalized jumps) and the energy norm (plus weighted flux averages).
    Blocks shared by a group of plain elements or edges are computed once;
    S and the Grams are bit-identical to an element-by-element loop.
    """
    mesh, nl = spaces.mesh, spaces.layout.n_local
    gamma = spaces.beta_plus**2 / spaces.beta_minus
    pen = sigma0 * gamma / mesh.h

    K = np.zeros((mesh.n_elements, nl, nl))
    F = np.zeros(spaces.layout.total)
    for elems, pts, w, side, vals, grads in spaces.volume_groups(q_vol):
        K[elems] += _stiffness(spaces, side, w[0], grads)
        for e, p, we in zip(elems, pts, w):
            F[e * nl:(e + 1) * nl] += vals @ (we * f_source(p, side))

    def sipdg(w, avg, a, b):
        (sa, Va, Ba), (sb, Vb, Bb) = a, b
        return (-avg * sa * (Va * w) @ Bb.T - avg * sb * (Ba * w) @ Vb.T
                + pen * sa * sb * (Va * w) @ Vb.T)

    terms = _edge_terms(spaces, q_edge)
    # Dirichlet data, added boundary edge by boundary edge in edge order
    dirichlet = []
    for ks, pts, w, side, _, members in terms:
        if len(members) == 1:
            _, V, B = members[0]
            dirichlet += [(k, e, (-B + pen * V) @ (we * g_dirichlet(p, side)))
                          for k, e, p, we in zip(ks, mesh.edge_elems[ks, 0], pts, w)]
    for _, e, contribution in sorted(dirichlet, key=lambda t: t[0]):
        F[e * nl:(e + 1) * nl] += contribution

    system = SipdgSystem(S=_csr(spaces, K, terms, sipdg), F=F, sigma0=sigma0, gamma=gamma,
                         penalty=pen, spaces=spaces)
    if with_norm_grams:
        system.norm_gram = _csr(spaces, K, terms, lambda w, avg, a, b:
                                pen * a[0] * b[0] * (a[1] * w) @ b[1].T)
        system.energy_gram = system.norm_gram + _csr(spaces, K[:0], terms, lambda w, avg, a, b:
                                                     (avg * avg / pen) * (a[2] * w) @ b[2].T)
    return system


def smallest_eigenvalue(S: sp.csr_matrix, dense_limit: int = 2500) -> float:
    n = S.shape[0]
    if n <= dense_limit:
        return float(np.linalg.eigvalsh(S.toarray())[0])
    w = spla.eigsh(S, k=1, which="SA", tol=1e-6, maxiter=5000,
                   return_eigenvectors=False)
    return float(w[0])


def solve(system: SipdgSystem, pd_check: bool | None = None) -> np.ndarray:
    """Direct sparse solve with a residual contract of 1e-11.

    pd_check defaults to on for small systems; a non-positive eigenvalue
    reports NotPositiveDefinite (penalty below the coercivity threshold).
    """
    n = system.S.shape[0]
    if pd_check is None:
        pd_check = n <= 2500
    if pd_check and smallest_eigenvalue(system.S) <= 0.0:
        raise NotPositiveDefinite(
            "stiffness matrix has a non-positive eigenvalue; increase sigma0")
    c = spla.spsolve(system.S.tocsc(), system.F)
    resid = np.linalg.norm(system.S @ c - system.F) / max(np.linalg.norm(system.F), 1e-300)
    if resid > 1e-11:
        raise NonConvergence(f"linear solve residual {resid:.2e} > 1e-11")
    return c


def trace_constant(spaces: SpaceSet, e: int,
                   q_vol: int | None = None, q_edge: int | None = None) -> float:
    """Normalized trace constant of one element.

    Largest generalized eigenvalue of the boundary flux Gram against the
    weighted stiffness (constants deflated), scaled by sqrt(h)*sqrt(beta-)/
    beta+; bounded uniformly in h, cut position and beta.
    """
    mesh = spaces.mesh
    A = sum(_stiffness(spaces, side, rule.weights, grads)
            for rule, side, _, grads in spaces.volume(e, q_vol))
    B = sum(float(spaces.beta_of(side))**2 * np.einsum("bpk,p,cpk->bc", grads, w, grads)
            for k in mesh.elem_edges[e] for _, w, side, _, grads in spaces.face(k, e, q_edge))
    lam, vecs = np.linalg.eigh(A)
    keep = lam > 1e-10 * lam[-1]
    if not np.any(keep):
        raise SingularGram("element stiffness has no non-constant block")
    W = vecs[:, keep]
    lam_max = scipy.linalg.eigh(W.T @ B @ W, W.T @ A @ W,
                                eigvals_only=True)[-1]
    return float(np.sqrt(lam_max * mesh.h) * np.sqrt(spaces.beta_minus)
                 / spaces.beta_plus)


def auto_sigma0(spaces: SpaceSet, q_vol: int | None = None,
                q_edge: int | None = None) -> tuple[float, float]:
    """Penalty from the trace probe: sigma0 = 4*max_K C_t(K)^2 + 1.

    Probes every interface element plus one uncut element; returns
    (sigma0, max C_t).  Satisfies the coercivity requirement
    sigma0 > C_t^2 + 1/2 with margin.
    """
    elems = list(spaces.tags.interface_elements)
    for e in range(spaces.mesh.n_elements):
        if spaces.tags.tags[e].kind == "plain":
            elems.append(e)
            break
    ct = max(trace_constant(spaces, e, q_vol, q_edge) for e in elems)
    return 4.0 * ct**2 + 1.0, ct


def coercivity_ratio(system: SipdgSystem) -> float:
    """min over the discrete space of a_h(v, v) / |||v|||_h^2 (dense probe)."""
    if system.energy_gram is None:
        raise ValueError("assemble with with_norm_grams=True first")
    S = system.S.toarray()
    G = system.energy_gram.toarray()
    S = 0.5 * (S + S.T)
    G = 0.5 * (G + G.T)
    w = scipy.linalg.eigh(S, G, eigvals_only=True)
    return float(w[0])
