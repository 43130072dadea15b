"""Compression subsystem: SZ-like lossy, lossless backends, metrics, registry."""

from .interface import (
    Compressor,
    available_compressors,
    compressor_options,
    get_compressor,
    register_compressor,
)
from .lossless import Bz2Compressor, LzmaCompressor, NullCompressor, ZlibCompressor
from .metrics import (
    CompressionReport,
    compression_ratio,
    evaluate_compressor,
    fidelity_floor,
    max_component_error,
    norm_error_bound,
    psnr,
)
from .quantizer import dequantize, quantize, unzigzag, zigzag
from .szlike import SZLikeCompressor

__all__ = [
    "Compressor",
    "register_compressor",
    "get_compressor",
    "available_compressors",
    "compressor_options",
    "SZLikeCompressor",
    "ZlibCompressor",
    "LzmaCompressor",
    "Bz2Compressor",
    "NullCompressor",
    "CompressionReport",
    "evaluate_compressor",
    "compression_ratio",
    "max_component_error",
    "psnr",
    "norm_error_bound",
    "fidelity_floor",
    "quantize",
    "dequantize",
    "zigzag",
    "unzigzag",
]
