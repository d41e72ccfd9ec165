"""egnet: a lightweight edge-Gaussian convolutional backbone, from scratch.

Verified forward and backward passes over a small NCHW tensor core, fixed
classical-kernel generators (Gaussian, Laplacian-of-Gaussian, Scharr),
and a CLI for feature extraction, kernel inspection, and gradient checks.
"""

__version__ = "0.1.0"

from .backbone import (
    BackboneConfig,
    FeaturePyramid,
    Mode,
    Model,
    Param,
    backbone_forward,
    backbone_gradcheck,
    build_model,
    eca_kernel_size,
    edge_attention,
    gaussian_attention,
)
from .kernels import gaussian_kernel, log_kernel, scharr_kernels
from .tensor import Tensor, load_raw_tensor, save_raw_tensor
from .weights import load_weights, save_weights

__all__ = [
    "BackboneConfig",
    "FeaturePyramid",
    "Mode",
    "Model",
    "Param",
    "Tensor",
    "__version__",
    "backbone_forward",
    "backbone_gradcheck",
    "build_model",
    "eca_kernel_size",
    "edge_attention",
    "gaussian_attention",
    "gaussian_kernel",
    "load_raw_tensor",
    "load_weights",
    "log_kernel",
    "save_raw_tensor",
    "save_weights",
    "scharr_kernels",
]
