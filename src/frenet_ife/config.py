"""Run configuration: a single JSON-serializable block with validation."""

from __future__ import annotations

import json
import numbers
import sys
from dataclasses import asdict, dataclass, field

import numpy as np

from .curves import curve_from_config
from .errors import DegenerateParametrization


def _numbers(value) -> bool:
    """Whether value is a finite real number, or a list of them; a bool is not one."""
    items = value if isinstance(value, (list, tuple)) else [value]
    return all(isinstance(v, numbers.Real) and not isinstance(v, bool)
               and abs(v) <= sys.float_info.max for v in items)


@dataclass
class RunConfig:
    """Everything a run needs; defaults reproduce the circle benchmark."""

    domain: tuple = (-1.0, 1.0, -1.0, 1.0)
    interface: dict = field(default_factory=lambda: {"kind": "circle", "radius": 0.6})
    beta_minus: float = 1.0
    beta_plus: float = 10.0
    degree: int = 1
    sigma0: float | str = "auto"
    mesh_sizes: list = field(default_factory=lambda: [8, 16, 32, 64])
    quad: dict = field(default_factory=lambda: {"volume": None, "edge": None,
                                                "interface": None})
    case: dict = field(default_factory=lambda: {"kind": "circle_power", "p": 4})
    out_dir: str = "out"

    def to_dict(self) -> dict:
        d = asdict(self)
        d["domain"] = list(self.domain)
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "RunConfig":
        if not isinstance(d, dict):
            raise ValueError("a config must be a JSON object")
        cfg = cls()
        for key, val in d.items():
            if not hasattr(cfg, key):
                raise ValueError(f"unknown config key {key!r}")
            setattr(cfg, key, val)
        return cfg

    @classmethod
    def load(cls, path) -> "RunConfig":
        with open(path) as fh:
            return cls.from_dict(json.load(fh))

    def save(self, path):
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")

    def curve(self):
        return curve_from_config(self.interface)

    def validate(self):
        """Raises ValueError (TypeError on a value of the wrong type) on an
        unusable configuration: `validate_run`, then the manufactured case,
        which only the commands that build it need."""
        self.validate_run()
        kind = self.case.get("kind", "circle_power")
        if kind == "circle_power":
            if self.interface.get("kind") != "circle":
                raise ValueError("circle_power benchmark needs a circle interface")
            if any(float(c) != 0.0 for c in self.interface.get("center", (0.0, 0.0))):
                raise ValueError("circle_power benchmark needs a circle centred at the origin")
            self.manufactured_case()   # raises on an odd or small p, or a non-numeric radius
        else:
            raise ValueError(f"unknown benchmark case {kind!r}")
        return self

    def validate_run(self):
        """Raises ValueError on an unusable configuration, the case aside but
        for the keys of its block and the type of its p.  Integers must be
        ints (not floats or bools), the other values finite real numbers
        (not bools or strings); nothing is coerced.  An interface whose speed
        ||g'|| drops below 1e-12 is unusable too.

        The mesh check bounds only h * max curvature, a local quantity; it
        does not bound the curve's bottleneck distance, so two distant arcs
        that come closer than the mesh size pass it.
        """
        if type(self.degree) is not int or self.degree not in (1, 2, 3):
            raise ValueError("degree must be 1, 2 or 3")
        if not (_numbers([self.beta_minus, self.beta_plus])
                and self.beta_plus >= self.beta_minus > 0):
            raise ValueError("need finite beta_plus >= beta_minus > 0")
        with np.errstate(over="ignore"):
            # gamma of the jump penalty sigma0 * gamma / h, as assembly computes both
            gamma = np.float64(self.beta_plus) ** 2 / self.beta_minus
        if not np.isfinite(gamma):
            raise ValueError("the jump penalty's gamma = beta_plus^2 / beta_minus must be finite")
        x0, x1, y0, y1 = self.domain
        if not _numbers(self.domain):
            raise ValueError("domain entries must be finite numbers")
        if not (x1 > x0 and y1 > y0):
            raise ValueError("empty domain box")
        if not self.mesh_sizes:
            raise ValueError("mesh_sizes must be non-empty")
        for name, block, keys in (("quad", self.quad, {"volume", "edge", "interface"}),
                                  ("case", self.case, {"kind", "p"})):
            if not isinstance(block, dict) or set(block) - keys:
                raise ValueError(f"config key {name!r} takes an object with keys {sorted(keys)}")
        if not isinstance(self.interface, dict):
            raise ValueError("config key 'interface' takes an object")
        if not all(q is None or (type(q) is int and q >= 1) for q in self.quad.values()):
            raise ValueError("quad orders must be null or integers >= 1")
        # q Gauss points are exact to degree 2q-1; the Q^m stiffness and the
        # edge jump products have degree 2m in each variable
        for key in ("volume", "edge"):
            q = self.quad.get(key)
            if q is not None and q < self.degree + 1:
                raise ValueError(f"quad.{key} = {q} cannot integrate degree {self.degree}; "
                                 f"it needs at least degree + 1 = {self.degree + 1}")
        if type(self.case.get("p", 4)) is not int:
            raise ValueError("case.p must be an integer")
        petals = self.interface.get("petals")
        if self.interface.get("kind") == "flower" and not (type(petals) is int and petals >= 1):
            raise ValueError("interface.petals must be an integer >= 1")
        try:
            curve = self.curve()
            bad = [k for k, v in self.interface.items() if k != "kind" and not _numbers(v)]
            if bad:
                raise ValueError(f"interface.{bad[0]} must be a finite number or a list of them")
            kmax = curve.max_curvature
        except DegenerateParametrization as exc:
            raise ValueError(f"degenerate interface: {exc}") from exc
        if self.sigma0 != "auto" and not (_numbers(self.sigma0) and self.sigma0 > 0):
            raise ValueError("sigma0 must be a finite positive number or 'auto'")
        for n in self.mesh_sizes:
            if type(n) is not int or n < 1:
                raise ValueError("mesh sizes must be integers >= 1")
            side = max((x1 - x0) / n, (y1 - y0) / n)
            diag = float(np.hypot((x1 - x0) / n, (y1 - y0) / n))
            if kmax > 0 and side * kmax > 0.5:
                raise ValueError(
                    f"mesh n={n}: cell size * max curvature = {side * kmax:.3f} > 1/2; "
                    "refine the mesh or flatten the interface")
            if kmax > 0 and diag * kmax >= 1.0:
                raise ValueError(
                    f"mesh n={n}: element diagonal * max curvature >= 1 "
                    "(tubular chart not invertible)")
            with np.errstate(over="ignore"):
                penalty = 0.0 if self.sigma0 == "auto" else self.sigma0 * gamma / diag
            if not np.isfinite(penalty):
                raise ValueError(f"mesh n={n}: the jump penalty sigma0 * gamma / h must be "
                                 "finite; lower sigma0")
        scale = 0.0 if self.sigma0 == "auto" else self.sigma0 * float(gamma) / self.beta_minus
        if scale > 1e8:     # Python floats overflow to inf, without numpy's warning
            raise ValueError(f"sigma0 * (beta_plus / beta_minus)^2 = {scale:.3g} > 1e8, beyond "
                             "which the solve loses its accuracy; lower sigma0")
        return self

    def manufactured_case(self):
        from .analysis import manufactured_circle

        return manufactured_circle(self.interface["radius"], self.beta_minus,
                                   self.beta_plus, self.case.get("p", 4))
