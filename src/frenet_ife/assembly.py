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


def _csr(blocks, n):
    """Sum of dense blocks, each (block, row dofs, col dofs), as an n x n CSR."""
    rows = np.concatenate([np.repeat(r, len(c)) for _, r, c in blocks])
    cols = np.concatenate([np.tile(c, len(r)) for _, r, c in blocks])
    vals = np.concatenate([np.ravel(blk) for blk, _, _ in blocks])
    return sp.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr()


def _stiffness(spaces: SpaceSet, pieces):
    """beta-weighted gradient Gram of one element's evaluated pieces."""
    return sum(float(spaces.beta_of(side))
               * np.einsum("bpk,p,cpk->bc", grads, rule.weights, grads)
               for rule, side, _, grads in pieces)


def _edge_terms(spaces: SpaceSet, q_edge):
    """Per edge segment: (points, weights, side, average weight, members),
    members [(dofs, sign, values, beta-weighted normal derivatives)]."""
    mesh = spaces.mesh
    for k in range(mesh.n_edges):
        n_e = mesh.edge_normal[k]
        avg = 1.0 if mesh.edge_is_boundary[k] else 0.5
        for pts, w, side, members in spaces.edge(k, q_edge):
            beta = float(spaces.beta_of(side))
            yield pts, w, side, avg, [
                (spaces.layout.dofs(e), sign, vals, beta * np.einsum("bpk,k->bp", grads, n_e))
                for e, sign, vals, grads in members]


def assemble(spaces: SpaceSet, sigma0: float, f_source, g_dirichlet,
             q_vol: int | None = None, q_edge: int | None = None,
             with_norm_grams: bool = False) -> SipdgSystem:
    """Assemble the penalized system; optionally also the norm Gram matrices.

    f_source(points, side) and g_dirichlet(points, side) return values at
    quadrature points.  The norm Grams realize the broken norm (gradient +
    penalized jumps) and the energy norm (plus weighted flux averages).
    """
    mesh, layout = spaces.mesh, spaces.layout
    gamma = spaces.beta_plus**2 / spaces.beta_minus
    pen = sigma0 * gamma / mesh.h

    blocks = []
    F = np.zeros(layout.total)
    for e in range(mesh.n_elements):
        dofs = layout.dofs(e)
        pieces = spaces.volume(e, q_vol)
        blocks.append((_stiffness(spaces, pieces), dofs, dofs))
        for rule, side, vals, _ in pieces:
            F[dofs] += vals @ (rule.weights * f_source(rule.points, side))

    for pts, w, side, avg, members in _edge_terms(spaces, q_edge):
        for da, sa, Va, Ba in members:
            for db, sb, Vb, Bb in members:
                blocks.append((-avg * sa * (Va * w) @ Bb.T
                               - avg * sb * (Ba * w) @ Vb.T
                               + pen * sa * sb * (Va * w) @ Vb.T, da, db))
        if len(members) == 1:
            dofs, _, V, B = members[0]
            F[dofs] += (-B + pen * V) @ (w * g_dirichlet(pts, side))

    n = layout.total
    system = SipdgSystem(S=_csr(blocks, n), F=F, sigma0=sigma0, gamma=gamma,
                         penalty=pen, spaces=spaces)
    if with_norm_grams:
        norm = [(_stiffness(spaces, spaces.volume(e, q_vol)), layout.dofs(e), layout.dofs(e))
                for e in range(mesh.n_elements)]
        flux = []
        for _, w, _, avg, members in _edge_terms(spaces, q_edge):
            for da, sa, Va, Ba in members:
                for db, sb, Vb, Bb in members:
                    norm.append((pen * sa * sb * (Va * w) @ Vb.T, da, db))
                    flux.append(((avg * avg / pen) * (Ba * w) @ Bb.T, da, db))
        system.norm_gram = _csr(norm, n)
        system.energy_gram = system.norm_gram + _csr(flux, n)
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
    A = _stiffness(spaces, spaces.volume(e, q_vol))
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
