"""Application workloads: NAS FT/IS and CPMD skeletons, trace replay."""

from .base import (
    AppResult,
    AppSpec,
    CollectiveCall,
    RankProfile,
    app_cluster_spec,
    build_program,
    run_app,
)
from .cpmd import (
    CPMD_DATASETS,
    CPMD_TA_INP_MD,
    CPMD_WAT32_INP1,
    CPMD_WAT32_INP2,
)
from .kernels import (
    CG_CLASSES,
    FT_CLASSES,
    IS_CLASSES,
    KernelShape,
    ft_shape,
    is_shape,
    synthesize_cg,
    synthesize_ft,
    synthesize_is,
)
from .nas_ft import NAS_FT
from .nas_is import NAS_IS
from .trace import ComputeEvent, app_from_trace

__all__ = [
    "AppResult",
    "AppSpec",
    "CPMD_DATASETS",
    "CPMD_TA_INP_MD",
    "CPMD_WAT32_INP1",
    "CPMD_WAT32_INP2",
    "CollectiveCall",
    "ComputeEvent",
    "CG_CLASSES",
    "FT_CLASSES",
    "IS_CLASSES",
    "KernelShape",
    "NAS_FT",
    "NAS_IS",
    "RankProfile",
    "app_cluster_spec",
    "app_from_trace",
    "build_program",
    "ft_shape",
    "is_shape",
    "synthesize_cg",
    "synthesize_ft",
    "synthesize_is",
    "run_app",
]
