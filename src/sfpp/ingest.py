"""Array file IO, bundle validation, and report serialization.

Supported array formats are a narrow NPY v1.0 subset (little-endian f4/f8/i8,
C-order, rank 1 or 2) and plain CSV with an optional header line. Reports are
written as JSON with a fixed key order and 17-significant-digit reals so a
given report always serializes to the same bytes.
"""

from __future__ import annotations

import ast
import math
import os
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ArrayFormatError, BundleValidationError

_NPY_MAGIC = b"\x93NUMPY"
_READ_DTYPES = {"<f4": np.float32, "<f8": np.float64, "<i8": np.int64}


@dataclass(frozen=True)
class DatasetBundle:
    """Everything an estimator may consume, validated once at load time."""

    target_logits: np.ndarray
    class_count: int
    target_features: np.ndarray | None = None
    last_layer_weights: np.ndarray | None = None
    last_layer_bias: np.ndarray | None = None
    val_logits: np.ndarray | None = None
    val_labels: np.ndarray | None = None

    @property
    def n_target(self) -> int:
        return self.target_logits.shape[0]

    @property
    def has_validation(self) -> bool:
        return self.val_logits is not None and len(self.val_logits) > 0


@dataclass
class EstimateReport:
    """Outcome of one estimator run on one bundle."""

    method: str
    predicted_accuracy: float
    n_samples: int
    per_sample_correct: np.ndarray | None = None
    grad_norm_pairs: np.ndarray | None = None
    config_echo: dict = field(default_factory=dict)
    elapsed_ms: float = 0.0
    seed: int | None = None


# ----------------------------------------------------------------- arrays

def read_array(path) -> np.ndarray:
    """Read an NPY or CSV file; format chosen by extension."""
    path = Path(path)
    suffix = path.suffix.lower()
    if suffix == ".npy":
        arr = _read_npy(path)
    elif suffix == ".csv":
        arr = _read_csv(path)
    else:
        raise ArrayFormatError(f"{path}: unsupported extension {suffix!r} (expected .npy or .csv)")
    if np.issubdtype(arr.dtype, np.floating) and not np.all(np.isfinite(arr)):
        raise ArrayFormatError(f"{path}: contains NaN or Inf entries")
    return arr


def _read_npy(path: Path) -> np.ndarray:
    """Parse the header, then read the payload straight into a new array,
    so the data are held once (<f4 adds its float64 copy)."""
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        lead = fh.read(10)
        if len(lead) < 10 or lead[:6] != _NPY_MAGIC:
            raise ArrayFormatError(f"{path}: bad magic bytes, not an NPY file")
        major, minor = lead[6], lead[7]
        if (major, minor) != (1, 0):
            raise ArrayFormatError(f"{path}: unsupported NPY version {major}.{minor}")
        header_len = int.from_bytes(lead[8:10], "little")
        header_end = 10 + header_len
        if size < header_end:
            raise ArrayFormatError(f"{path}: truncated header")
        try:
            header = ast.literal_eval(fh.read(header_len).decode("latin1"))
        except (ValueError, SyntaxError) as exc:
            raise ArrayFormatError(f"{path}: unparseable header: {exc}") from exc
        if not isinstance(header, dict) or set(header) != {"descr", "fortran_order", "shape"}:
            raise ArrayFormatError(f"{path}: header must have exactly descr/fortran_order/shape")
        descr = header["descr"]
        if descr not in _READ_DTYPES:
            raise ArrayFormatError(f"{path}: unsupported dtype {descr!r} (need <f4, <f8 or <i8)")
        if header["fortran_order"]:
            raise ArrayFormatError(f"{path}: fortran_order arrays are not supported")
        shape = header["shape"]
        if not isinstance(shape, tuple) or len(shape) not in (1, 2) or any(
            not isinstance(s, int) or s < 0 for s in shape
        ):
            raise ArrayFormatError(f"{path}: shape must be a rank-1 or rank-2 tuple, got {shape!r}")
        dtype = np.dtype(_READ_DTYPES[descr])
        expected = math.prod(shape) * dtype.itemsize
        if size - header_end != expected:
            raise ArrayFormatError(
                f"{path}: payload holds {size - header_end} bytes, header implies {expected}"
            )
        arr = np.empty(shape, dtype=dtype)
        got = fh.readinto(arr.reshape(-1).view(np.uint8))
        if got != expected:  # the file shrank after it was measured
            raise ArrayFormatError(f"{path}: payload holds {got} bytes, header implies {expected}")
    if descr == "<f4":
        arr = arr.astype(np.float64)
    return arr


def _read_csv(path: Path) -> np.ndarray:
    lines = [ln for ln in path.read_text("utf-8").splitlines() if ln.strip()]
    if not lines:
        raise ArrayFormatError(f"{path}: empty CSV")

    def parse_row(line):
        return [tok.strip() for tok in line.split(",")]

    first = parse_row(lines[0])
    start = 0
    try:
        float(first[0])
    except ValueError:
        start = 1  # header line
    if start == len(lines):
        raise ArrayFormatError(f"{path}: CSV holds only a header line")
    rows = []
    width = None
    for ln in lines[start:]:
        toks = parse_row(ln)
        if width is None:
            width = len(toks)
        elif len(toks) != width:
            raise ArrayFormatError(f"{path}: ragged CSV, row widths {width} vs {len(toks)}")
        try:
            rows.append([float(t) for t in toks])
        except ValueError as exc:
            raise ArrayFormatError(f"{path}: non-numeric CSV value: {exc}") from exc
    return np.asarray(rows, dtype=np.float64)


def write_array(path, values) -> None:
    """Write an NPY v1.0 file, always <f8 or <i8 in C order."""
    arr = np.asarray(values)
    if arr.ndim not in (1, 2):
        raise ArrayFormatError(f"{path}: only rank-1 and rank-2 arrays are written, got rank {arr.ndim}")
    if np.issubdtype(arr.dtype, np.integer) or arr.dtype == np.bool_:
        arr = arr.astype(np.int64)
        descr = "<i8"
    else:
        arr = np.ascontiguousarray(arr, dtype=np.float64)
        descr = "<f8"
    shape = "(%d,)" % arr.shape if arr.ndim == 1 else "(%d, %d)" % arr.shape
    header = "{'descr': '%s', 'fortran_order': False, 'shape': %s, }" % (descr, shape)
    # Pad with spaces so magic+version+len+header is a multiple of 64, newline-terminated.
    unpadded = len(_NPY_MAGIC) + 2 + 2 + len(header) + 1
    header = header + " " * (-unpadded % 64) + "\n"
    with open(path, "wb") as fh:
        fh.write(_NPY_MAGIC)
        fh.write(bytes([1, 0]))
        fh.write(len(header).to_bytes(2, "little"))
        fh.write(header.encode("latin1"))
        fh.write(np.ascontiguousarray(arr).tobytes())


# ----------------------------------------------------------------- bundles

_BUNDLE_KEYS = (
    "target_logits",
    "target_features",
    "last_layer_weights",
    "last_layer_bias",
    "val_logits",
    "val_labels",
)


def read_manifest(path) -> dict:
    """Parse a flat ``key = path`` manifest file; '#' starts a comment."""
    out = {}
    for lineno, raw in enumerate(Path(path).read_text("utf-8").splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise BundleValidationError(f"{path}:{lineno}: expected key = path, got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _BUNDLE_KEYS:
            raise BundleValidationError(f"{path}:{lineno}: unknown manifest key {key!r}")
        out[key] = value
    return out


def _as_2d(name: str, arr: np.ndarray) -> np.ndarray:
    if arr.ndim != 2:
        raise BundleValidationError(f"{name} must be 2-D, got shape {arr.shape}")
    return np.asarray(arr, dtype=np.float64)


def _as_labels(name: str, arr: np.ndarray) -> np.ndarray:
    if arr.ndim == 2 and arr.shape[1] == 1:
        arr = arr[:, 0]
    if arr.ndim != 1:
        raise BundleValidationError(f"{name} must be a 1-D integer vector, got shape {arr.shape}")
    if np.issubdtype(arr.dtype, np.floating):
        if not np.all(arr == np.floor(arr)):
            raise BundleValidationError(f"{name} holds non-integral values")
        arr = arr.astype(np.int64)
    return np.asarray(arr, dtype=np.int64)


def load_bundle(manifest: dict) -> DatasetBundle:
    """Load arrays named by a manifest (key -> path or ndarray) and validate."""
    arrays = {}
    for key, value in manifest.items():
        if key not in _BUNDLE_KEYS:
            raise BundleValidationError(f"unknown manifest key {key!r}")
        if value is None:
            continue
        arrays[key] = value if isinstance(value, np.ndarray) else read_array(value)
    if "target_logits" not in arrays:
        raise BundleValidationError("manifest is missing the mandatory target_logits array")

    logits = _as_2d("target_logits", arrays["target_logits"])
    n_t, c = logits.shape
    if n_t < 1 or c < 2:
        raise BundleValidationError(f"target_logits needs n>=1 samples and C>=2 classes, got {logits.shape}")

    features = weights = bias = val_logits = val_labels = None
    if "target_features" in arrays:
        features = _as_2d("target_features", arrays["target_features"])
        if features.shape[0] != n_t:
            raise BundleValidationError(
                f"target_features has {features.shape[0]} rows but target_logits has {n_t}"
            )
    if "last_layer_weights" in arrays:
        weights = _as_2d("last_layer_weights", arrays["last_layer_weights"])
        if weights.shape[0] != c:
            raise BundleValidationError(
                f"last_layer_weights has {weights.shape[0]} rows but target_logits implies C={c}"
            )
        if features is not None and weights.shape[1] != features.shape[1]:
            raise BundleValidationError(
                f"last_layer_weights width {weights.shape[1]} mismatches "
                f"target_features width {features.shape[1]}"
            )
    if "last_layer_bias" in arrays:
        bias = np.asarray(arrays["last_layer_bias"], dtype=np.float64).reshape(-1)
        if bias.shape[0] != c:
            raise BundleValidationError(
                f"last_layer_bias has length {bias.shape[0]} but target_logits implies C={c}"
            )
    if ("val_logits" in arrays) != ("val_labels" in arrays):
        raise BundleValidationError("val_logits and val_labels must be given together")
    if "val_logits" in arrays:
        val_logits = _as_2d("val_logits", arrays["val_logits"])
        if val_logits.shape[0] < 1:
            raise BundleValidationError(f"val_logits needs at least 1 row, got shape {val_logits.shape}")
        if val_logits.shape[1] != c:
            raise BundleValidationError(
                f"val_logits has {val_logits.shape[1]} columns but target_logits has {c}"
            )
        val_labels = _as_labels("val_labels", arrays["val_labels"])
        if val_labels.shape[0] != val_logits.shape[0]:
            raise BundleValidationError(
                f"val_labels has {val_labels.shape[0]} entries but val_logits has "
                f"{val_logits.shape[0]} rows"
            )
        if val_labels.min() < 0 or val_labels.max() >= c:
            raise BundleValidationError(
                f"val_labels must lie in [0, {c}), found range "
                f"[{val_labels.min()}, {val_labels.max()}]"
            )
    return DatasetBundle(
        target_logits=logits,
        class_count=c,
        target_features=features,
        last_layer_weights=weights,
        last_layer_bias=bias,
        val_logits=val_logits,
        val_labels=val_labels,
    )


# ----------------------------------------------------------------- reports

def _fmt_real(x: float) -> str:
    if not np.isfinite(x):
        raise ValueError(f"report holds a non-finite real: {x}")
    return format(float(x), ".17g")


class _Rendered(str):
    """JSON text already rendered; _fmt_json emits it as is."""


def _fmt_int_vector(values) -> _Rendered:
    """The bytes _fmt_json gives a list of ints, built with one join."""
    return _Rendered("[%s]" % ", ".join(map(str, np.asarray(values).astype(np.int64).tolist())))


def _fmt_real_rows(rows) -> _Rendered:
    """The bytes _fmt_json gives a list of lists of floats, built with one
    format call; the finiteness check runs once over the whole array."""
    rows = np.asarray(rows, dtype=np.float64)
    finite = np.isfinite(rows)
    if not finite.all():
        raise ValueError(f"report holds a non-finite real: {float(rows[~finite][0])}")
    row = "[%s]" % ", ".join(["%.17g"] * rows.shape[1])
    return _Rendered("[%s]" % ", ".join([row] * rows.shape[0]) % tuple(rows.ravel().tolist()))


def _fmt_json(value, indent: int) -> str:
    pad = "  " * indent
    if isinstance(value, _Rendered):
        return value
    if isinstance(value, str):
        return '"%s"' % value.replace("\\", "\\\\").replace('"', '\\"')
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None:
        return "null"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return _fmt_real(value)
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = ",\n".join(
            f'{pad}  "{k}": {_fmt_json(value[k], indent + 1)}' for k in value
        )
        return "{\n%s\n%s}" % (items, pad)
    if isinstance(value, (list, tuple, np.ndarray)):
        seq = list(value)
        if not seq:
            return "[]"
        return "[%s]" % ", ".join(_fmt_json(v, indent) for v in seq)
    raise TypeError(f"unserializable report value of type {type(value)!r}")


def format_real(x: float) -> str:
    """Render a float with 17 significant digits (round-trip exact)."""
    return _fmt_real(x)


def to_json_text(value) -> str:
    """Deterministic JSON with 17-significant-digit reals, newline-terminated."""
    return _fmt_json(value, 0) + "\n"


def report_to_json(report: EstimateReport) -> str:
    """Serialize with the fixed key order; reals carry 17 significant digits."""
    doc: dict = {
        "method": report.method,
        "predicted_accuracy": float(report.predicted_accuracy),
        "n_samples": int(report.n_samples),
    }
    if report.per_sample_correct is not None:
        doc["per_sample_correct"] = _fmt_int_vector(report.per_sample_correct)
    if report.grad_norm_pairs is not None:
        doc["grad_norms"] = _fmt_real_rows(report.grad_norm_pairs)
    doc["config"] = {k: report.config_echo[k] for k in sorted(report.config_echo)}
    doc["elapsed_ms"] = float(report.elapsed_ms)
    doc["seed"] = report.seed
    return _fmt_json(doc, 0) + "\n"


def write_report(report: EstimateReport, path) -> None:
    Path(path).write_bytes(report_to_json(report).encode("utf-8"))
