"""Split algebras, non-compact Hopf maps between ultra-hyperboloids, and
their monopole gauge fields, with exact verification throughout."""

from .splitnum import (
    SplitComplex, OrdinaryComplex, SplitQuaternion, SplitOctonion,
    OCTONION_TABLE, verify_structure_table, multiplication_table,
)
from .ringmat import RMatrix, MetricForm, RING_REAL, RING_SPLIT, RING_COMPLEX
from .gammarep import build_family, FAMILY_NAMES
from .hopfmaps import (
    Spinor, BasePoint, project, invert, sample_normalized, sample_base_point,
    level0_project, level0_invert,
)
from .gaugegeom import (
    connection_closed, connection_numeric, curvature_closed, transition,
    gluing_check,
)
from .superhopf import (
    GrassmannElement, PSEUDO, STANDARD, super_project, super_invert,
    super_connection, super_curvature, super_transition,
)

__version__ = "0.1.0"
