"""Array file IO, the bundle's input contract, and report serialization.

Supported array formats are a narrow NPY v1.0 subset (little-endian f4/f8/i8,
C-order, rank 1 or 2) and plain CSV with an optional header line. Reports are
written as JSON with a fixed key order and 17-significant-digit reals so a
given report always serializes to the same bytes. A `DatasetBundle` checks its
arrays when it is built; `load_bundle` only reads them, and refuses an empty
validation split.
"""

from __future__ import annotations

import ast
import math
import os
import time
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from .errors import ArrayFormatError, BundleValidationError

_NPY_MAGIC = b"\x93NUMPY"
_READ_DTYPES = {"<f4": np.float32, "<f8": np.float64, "<i8": np.int64}


def _as_2d(name: str, arr) -> np.ndarray:
    arr = np.asarray(arr, dtype=np.float64)
    if arr.ndim != 2:
        raise BundleValidationError(f"{name} must be 2-D, got shape {arr.shape}")
    return arr


def _as_labels(name: str, arr) -> np.ndarray:
    """A label vector, (n, 1) taken as (n,); floats must be integral and stay
    floats until the range check, so 1e20 reads 1e+20 there, not a wrapped int."""
    arr = np.asarray(arr)
    if arr.ndim == 2 and arr.shape[1] == 1:
        arr = arr[:, 0]
    if arr.ndim != 1:
        raise BundleValidationError(f"{name} must be a 1-D integer vector, got shape {arr.shape}")
    if arr.dtype.kind == "f" and not np.all(arr == np.floor(arr)):
        raise BundleValidationError(f"{name} holds non-integral values")
    return arr


@dataclass(frozen=True)
class DatasetBundle:
    """Everything an estimator may consume, checked on construction however
    it was built: arrays are stored as float64, labels as int64, and one
    already in that dtype is kept, not copied."""

    target_logits: np.ndarray
    class_count: int
    target_features: np.ndarray | None = None
    last_layer_weights: np.ndarray | None = None
    last_layer_bias: np.ndarray | None = None
    val_logits: np.ndarray | None = None
    val_labels: np.ndarray | None = None

    def __post_init__(self):
        """Every rule about the arrays, O(validation rows) beyond the casts. An
        empty validation split passes: estimators that need one refuse it."""
        logits = self._coerce("target_logits", _as_2d)
        n_t, c = logits.shape
        if n_t < 1 or c < 2:
            raise BundleValidationError(
                f"target_logits needs n>=1 samples and C>=2 classes, got {logits.shape}")
        if self.class_count != c:
            raise BundleValidationError(
                f"class_count is {self.class_count} but target_logits has {c} columns")
        features = self._coerce("target_features", _as_2d)
        if features is not None and features.shape[0] != n_t:
            raise BundleValidationError(
                f"target_features has {features.shape[0]} rows but target_logits has {n_t}"
            )
        weights = self._coerce("last_layer_weights", _as_2d)
        if weights is not None and weights.shape[0] != c:
            raise BundleValidationError(
                f"last_layer_weights has {weights.shape[0]} rows but target_logits implies C={c}"
            )
        if weights is not None and features is not None and weights.shape[1] != features.shape[1]:
            raise BundleValidationError(
                f"last_layer_weights width {weights.shape[1]} mismatches "
                f"target_features width {features.shape[1]}"
            )
        if self.last_layer_bias is not None:
            bias = np.asarray(self.last_layer_bias, dtype=np.float64)
            if bias.shape not in ((c,), (1, c), (c, 1)):
                raise BundleValidationError(
                    f"last_layer_bias must be a length-C vector, one row or one column, "
                    f"with C={c} from target_logits; got shape {bias.shape}"
                )
            object.__setattr__(self, "last_layer_bias", bias.reshape(-1))
        logits = self._coerce("val_logits", _as_2d)
        labels = self._coerce("val_labels", _as_labels)
        if (logits is None) != (labels is None):
            raise BundleValidationError("val_logits and val_labels must be given together")
        if logits is None:
            return
        if logits.shape[1] != c:
            raise BundleValidationError(
                f"val_logits has {logits.shape[1]} columns but target_logits has {c}"
            )
        if labels.shape[0] != logits.shape[0]:
            raise BundleValidationError(
                f"val_labels has {labels.shape[0]} entries but val_logits has "
                f"{logits.shape[0]} rows"
            )
        if labels.size and (labels.min() < 0 or labels.max() >= c):
            lo, hi = (str(v).removesuffix(".0") for v in (labels.min(), labels.max()))
            raise BundleValidationError(f"val_labels must lie in [0, {c}), found range [{lo}, {hi}]")
        object.__setattr__(self, "val_labels", labels.astype(np.int64, copy=False))

    def _coerce(self, name: str, convert):
        """Field `name` through `convert(name, value)`, stored back; None stays None."""
        value = getattr(self, name)
        if value is not None:
            value = convert(name, value)
            object.__setattr__(self, name, value)
        return value

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

    @classmethod
    def since(cls, t0: float, method: str, predicted, n, *, correct=None, pairs=None,
              config=None) -> EstimateReport:
        """The report of a run that started at ``time.perf_counter()`` reading ``t0``."""
        return cls(method=method, predicted_accuracy=float(predicted), n_samples=int(n),
                   per_sample_correct=correct, grad_norm_pairs=pairs, config_echo=config or {},
                   elapsed_ms=(time.perf_counter() - t0) * 1000.0)


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
    """Rows of comma-separated reals after an optional header line, which must
    be as wide as the rows; a UTF-8 byte order mark is dropped."""
    lines = [ln for ln in path.read_text("utf-8-sig").splitlines() if ln.strip()]
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
    if start and len(first) != width:
        raise ArrayFormatError(f"{path}: ragged CSV, header width {len(first)} vs row width {width}")
    return np.asarray(rows, dtype=np.float64)


def write_array(path, values) -> None:
    """Write an NPY v1.0 file, always <f8 or <i8 in C order."""
    arr = np.asarray(values)
    if arr.ndim not in (1, 2):
        raise ArrayFormatError(f"{path}: only rank-1 and rank-2 arrays are written, got rank {arr.ndim}")
    arr = np.ascontiguousarray(arr, dtype="<i8" if arr.dtype.kind in "biu" else "<f8")
    with open(path, "wb") as fh:
        np.lib.format.write_array(fh, arr, version=(1, 0), allow_pickle=False)


# ----------------------------------------------------------------- bundles

BUNDLE_KEYS = tuple(f.name for f in fields(DatasetBundle) if f.name != "class_count")


def read_manifest(path) -> dict:
    """Parse a flat ``key = path`` manifest file; '#' starts a comment and a
    UTF-8 byte order mark is dropped."""
    out = {}
    first_line = {}
    for lineno, raw in enumerate(Path(path).read_text("utf-8-sig").splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise BundleValidationError(f"{path}:{lineno}: expected key = path, got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in BUNDLE_KEYS:
            raise BundleValidationError(f"{path}:{lineno}: unknown manifest key {key!r}")
        if key in out:
            raise BundleValidationError(
                f"{path}:{lineno}: manifest key {key!r} repeats line {first_line[key]}")
        out[key] = value
        first_line[key] = lineno
    return out


def load_bundle(manifest: dict) -> DatasetBundle:
    """Read the arrays a manifest names (key -> path or ndarray) into a bundle,
    which checks them; the validation split it loads must not be empty."""
    arrays = {}
    for key, value in manifest.items():
        if key not in BUNDLE_KEYS:
            raise BundleValidationError(f"unknown manifest key {key!r}")
        if value is not None:
            arrays[key] = value if isinstance(value, np.ndarray) else read_array(value)
    if "target_logits" not in arrays:
        raise BundleValidationError("manifest is missing the mandatory target_logits array")
    logits = arrays["target_logits"]
    # the bundle checks the shape, so below rank 2 any width will do here
    bundle = DatasetBundle(class_count=logits.shape[-1] if logits.ndim else 0, **arrays)
    if bundle.val_logits is not None and len(bundle.val_logits) < 1:
        raise BundleValidationError(
            f"val_logits needs at least 1 row, got shape {bundle.val_logits.shape}")
    return bundle


# ----------------------------------------------------------------- reports

def format_real(x: float) -> str:
    """Render a float with 17 significant digits (round-trip exact)."""
    if not np.isfinite(x):
        raise ValueError(f"report holds a non-finite real: {x}")
    return format(float(x), ".17g")


# JSON string escapes: backslash, quote and every control character U+0000-U+001F.
_JSON_ESCAPES = {ord("\\"): "\\\\", ord('"'): '\\"', **{i: "\\u%04x" % i for i in range(0x20)}}


def _fmt_json(value, indent: int) -> str:
    pad = "  " * indent
    if isinstance(value, np.ndarray) and value.ndim == 1 and value.dtype.kind in "biu":
        return "[%s]" % ", ".join(map(str, value.astype(np.int64).tolist()))
    if isinstance(value, np.ndarray) and value.ndim == 2 and value.dtype.kind == "f":
        # one finiteness check and one format call for the whole matrix
        finite = np.isfinite(value)
        if not finite.all():
            raise ValueError(f"report holds a non-finite real: {float(value[~finite][0])}")
        row = "[%s]" % ", ".join(["%.17g"] * value.shape[1])
        return "[%s]" % ", ".join([row] * value.shape[0]) % tuple(value.ravel().tolist())
    if isinstance(value, str):
        return '"%s"' % value.translate(_JSON_ESCAPES)
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None:
        return "null"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return format_real(value)
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = ",\n".join(
            f"{pad}  {_fmt_json(str(k), 0)}: {_fmt_json(value[k], indent + 1)}" for k in value
        )
        return "{\n%s\n%s}" % (items, pad)
    if isinstance(value, (list, tuple, np.ndarray)):
        seq = list(value)
        if not seq:
            return "[]"
        return "[%s]" % ", ".join(_fmt_json(v, indent) for v in seq)
    raise TypeError(f"unserializable report value of type {type(value)!r}")


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
        doc["per_sample_correct"] = np.asarray(report.per_sample_correct)
    if report.grad_norm_pairs is not None:
        doc["grad_norms"] = np.asarray(report.grad_norm_pairs, dtype=np.float64)
    doc["config"] = {k: report.config_echo[k] for k in sorted(report.config_echo)}
    doc["elapsed_ms"] = float(report.elapsed_ms)
    doc["seed"] = report.seed
    return to_json_text(doc)


def write_report(report: EstimateReport, path) -> None:
    Path(path).write_bytes(report_to_json(report).encode("utf-8"))
