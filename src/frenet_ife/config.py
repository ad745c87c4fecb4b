"""Run configuration: a single JSON-serializable block with validation."""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field

import numpy as np

from .curves import curve_from_config


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
        cfg = cls()
        for key, val in d.items():
            if not hasattr(cfg, key):
                raise ValueError(f"unknown config key {key!r}")
            setattr(cfg, key, val)
        cfg.domain = tuple(float(v) for v in cfg.domain)
        cfg.mesh_sizes = [int(n) for n in cfg.mesh_sizes]
        cfg.degree = int(cfg.degree)
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
        """Raises ValueError on an unusable configuration.

        The mesh check bounds only h * max curvature, a local quantity; it
        does not bound the curve's bottleneck distance, so two distant arcs
        that come closer than the mesh size pass it.
        """
        if self.degree not in (1, 2, 3):
            raise ValueError("degree must be 1, 2 or 3")
        if not (self.beta_plus >= self.beta_minus > 0):
            raise ValueError("need beta_plus >= beta_minus > 0")
        x0, x1, y0, y1 = self.domain
        if not (x1 > x0 and y1 > y0):
            raise ValueError("empty domain box")
        if not self.mesh_sizes:
            raise ValueError("mesh_sizes must be non-empty")
        curve = self.curve()
        kmax = curve.max_curvature
        for n in self.mesh_sizes:
            if n < 1:
                raise ValueError("mesh sizes must be >= 1")
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
        if isinstance(self.sigma0, str):
            if self.sigma0 != "auto":
                raise ValueError("sigma0 must be a positive number or 'auto'")
        elif not self.sigma0 > 0:
            raise ValueError("sigma0 must be positive")
        kind = self.case.get("kind", "circle_power")
        if kind == "circle_power":
            if self.interface.get("kind") != "circle":
                raise ValueError("circle_power benchmark needs a circle interface")
            if any(float(c) != 0.0 for c in self.interface.get("center", (0.0, 0.0))):
                raise ValueError("circle_power benchmark needs a circle centred at the origin")
            p = int(self.case.get("p", 4))
            if p < 4 or p % 2:
                raise ValueError("circle_power needs even p >= 4")
        else:
            raise ValueError(f"unknown benchmark case {kind!r}")
        return self

    def manufactured_case(self):
        from .analysis import manufactured_circle

        return manufactured_circle(self.interface["radius"], self.beta_minus,
                                   self.beta_plus, int(self.case.get("p", 4)))
