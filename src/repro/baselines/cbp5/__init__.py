"""CBP5-framework-style baseline (text traces, framework control flow)."""

from ..._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, globals(), {
    ".bt9": ("Bt9Header", "bt9_to_trace_data", "iter_bt9", "read_bt9_header",
             "write_bt9"),
    ".framework": ("Cbp5Framework", "Cbp5Result", "cbp5_main"),
    ".interface": ("Cbp5Predictor", "FromMbpPredictor", "OpType"),
})

__all__ = [
    "Bt9Header", "bt9_to_trace_data", "iter_bt9", "read_bt9_header",
    "write_bt9",
    "Cbp5Framework", "Cbp5Result", "cbp5_main",
    "Cbp5Predictor", "FromMbpPredictor", "OpType",
]
