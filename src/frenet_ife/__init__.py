"""Immersed finite elements in interface-fitted tubular coordinates, with a
symmetric interior-penalty DG solver for 2D elliptic interface problems on
unfitted rectangular meshes."""

from .curves import InterfaceCurve, LineCurve, TrigCurve, circle, ellipse, flower, frenet_frame
from .frenet import ChordChart, FrenetChart
from .laplacian import FrenetLaplacian
from .mesh import InterfaceCuts, MeshTags, RectMesh, build_mesh, classify_elements
from .quadrature import QuadRule, cut_cell_rules, cut_edge_rule, gauss_rect
from .ife_space import IfeBasis, SpaceSet, TensorBasis, build_spaces
from .assembly import SipdgSystem, assemble, auto_sigma0, solve, trace_constant
from .analysis import ManufacturedCase, convergence_study, error_norms, geometry_probes, manufactured_circle
from .config import RunConfig

__version__ = "0.1.0"
