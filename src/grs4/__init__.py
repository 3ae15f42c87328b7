"""Rotational surfaces in pseudo-Euclidean 4-space with neutral metric.

Library layout:
    pe4        signature-(2,2) vectors and their inner product
    jets       order-2 jet arithmetic and expression descriptors
    odeint     fixed-step RK4 with dense output
    meridians  the classified meridian families and their evaluators
    surfaces   frames, fundamental forms, curvature invariants
    verifier   finite-difference oracles and verification suites
    cli        command-line front end (also exposed as the grs4 script)
"""

from .errors import (ConfigError, ConstraintDriftError, DomainError,
                     FieldError, GrsError, InadmissiblePointError,
                     NoRealRootError, ParamError, ProjectionError,
                     RangeError, StepError)
from .jets import Jet2
from .meridians import (FAMILY_CATALOG, FamilyDescriptor, MeridianFamily,
                        MeridianJet, build_family, descriptor_from_catalog,
                        classified_case_ids)
from .pe4 import PEVector4, inner
from .surfaces import (Curvatures, Frame, GeoFns, InvariantGrid,
                       InvariantRecord, PointJets, SurfaceKind, SurfaceSpec,
                       curvatures, frames, geometric_functions,
                       invariant_grid, invariant_record, position_jets,
                       surface_from_family)
from .verifier import (CheckResult, FamilyReport, SuiteReport,
                       admissible_domain, cross_check, default_suite_config,
                       run_suite, verify_family)

__version__ = "0.1.0"
