"""Array file IO, the bundle's input contract, and report serialization.

Supported array formats are a narrow NPY v1.0 subset (little-endian f4/f8/i8,
C-order, rank 1 or 2) and plain CSV with an optional header line. Reports are
written as JSON with a fixed key order and 17-significant-digit reals so a
given report always serializes to the same bytes. A `DatasetBundle` checks its
arrays when it is built; `load_bundle` only reads them, and refuses an empty
validation split. Features are kept as one factor per row, and a features
file is reduced to it while it is read.
"""

from __future__ import annotations

import ast
import contextlib
import functools
import math
import os
import time
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import numerics
from .errors import ArrayFormatError, BundleValidationError, InputError

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


def row_factor(features: np.ndarray) -> np.ndarray:
    """sqrt(||f||^2 + 1) for each row f: the Frobenius factor of the rank-1
    last-layer gradient, the only way the gradient norms read the features."""
    return np.sqrt(np.einsum("nd,nd->n", features, features) + 1.0)


class FeatureRows(NamedTuple):
    """A features matrix as ``read_features`` reduced it."""

    shape: tuple[int, int]
    factor: np.ndarray  # row_factor of the matrix


@dataclass(frozen=True)
class DatasetBundle:
    """Everything an estimator may consume, checked on construction however
    it was built: arrays are stored as float64, labels as int64, and one
    already in that dtype is kept, not copied.

    ``feature_factor`` is ``row_factor`` of ``target_features``: a matrix
    built in code, which is kept, or the ``FeatureRows`` that ``load_bundle``
    reads from a file in its place. It is derived on construction, replacing
    any value passed in, and is not a manifest key."""

    target_logits: np.ndarray
    class_count: int
    target_features: np.ndarray | FeatureRows | None = None
    last_layer_weights: np.ndarray | None = None
    last_layer_bias: np.ndarray | None = None
    val_logits: np.ndarray | None = None
    val_labels: np.ndarray | None = None
    feature_factor: np.ndarray | None = None

    def __post_init__(self):
        """Every rule about the arrays, O(validation rows) beyond the casts and
        the features' factor. An empty validation split passes: estimators
        that need one refuse it."""
        logits = self._coerce("target_logits", _as_2d)
        n_t, c = logits.shape
        if n_t < 1 or c < 2:
            raise BundleValidationError(
                f"target_logits needs n>=1 samples and C>=2 classes, got {logits.shape}")
        if self.class_count != c:
            raise BundleValidationError(
                f"class_count is {self.class_count} but target_logits has {c} columns")
        shape = factor = None
        if isinstance(self.target_features, FeatureRows):
            shape, factor = self.target_features
        elif self.target_features is not None:
            features = self._coerce("target_features", _as_2d)
            shape, factor = features.shape, row_factor(features)
        if factor is not None:
            if factor.shape[0] != n_t:
                raise BundleValidationError(
                    f"target_features has {factor.shape[0]} rows but target_logits has {n_t}"
                )
            if not numerics.all_finite(factor):
                row = np.flatnonzero(~np.isfinite(factor))[0]
                raise BundleValidationError(
                    f"target_features row {row}: sqrt(||f||^2 + 1) is not finite")
        object.__setattr__(self, "feature_factor", factor)
        weights = self._coerce("last_layer_weights", _as_2d)
        if weights is not None and weights.shape[0] != c:
            raise BundleValidationError(
                f"last_layer_weights has {weights.shape[0]} rows but target_logits implies C={c}"
            )
        if weights is not None and shape is not None and weights.shape[1] != shape[1]:
            raise BundleValidationError(
                f"last_layer_weights width {weights.shape[1]} mismatches "
                f"target_features width {shape[1]}"
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
        with open(path, "rb") as fh:
            dtype, shape = _npy_header(fh, path)
            arr = np.empty(shape, dtype=dtype)
            _read_payload(fh, path, arr.reshape(-1), 0, arr.nbytes)
        if dtype == np.float32:
            arr = arr.astype(np.float64)
    elif suffix == ".csv":
        arr = _read_csv(path)
    else:
        raise ArrayFormatError(f"{path}: unsupported extension {suffix!r} (expected .npy or .csv)")
    _check_finite(path, arr)
    return arr


def read_features(path) -> FeatureRows | np.ndarray:
    """A features file as the bundle keeps it: its ``FeatureRows``, so the
    matrix is never held. An NPY matrix is read in ``numerics.row_blocks``
    blocks into one buffer, each cast to float64, checked finite and reduced
    by ``row_factor``; a CSV is read whole, then reduced. Any other array is
    returned as ``read_array`` reads it, for the bundle to refuse."""
    path = Path(path)
    if path.suffix.lower() == ".npy":
        with open(path, "rb") as fh:
            dtype, shape = _npy_header(fh, path)
            if len(shape) == 2:
                return FeatureRows(shape, _reduce_rows(fh, path, dtype, *shape))
    arr = read_array(path)
    return FeatureRows(arr.shape, row_factor(arr)) if arr.ndim == 2 else arr


def _reduce_rows(fh, path: Path, dtype: np.dtype, n: int, d: int) -> np.ndarray:
    """``row_factor`` of the (n, d) payload at fh, block by block."""
    factor = np.empty(n)
    first = next(numerics.row_blocks(n, d), slice(0, 0))
    buffer = np.empty((first.stop - first.start) * d, dtype=dtype)
    for rows in numerics.row_blocks(n, d):
        m = rows.stop - rows.start
        block = buffer[:m * d]
        _read_payload(fh, path, block, rows.start * d * dtype.itemsize, n * d * dtype.itemsize)
        block = block.reshape(m, d).astype(np.float64, copy=False)
        _check_finite(path, block)
        factor[rows] = row_factor(block)
    return factor


def _check_finite(path: Path, arr: np.ndarray) -> None:
    if arr.dtype.kind == "f" and not numerics.all_finite(arr):
        raise ArrayFormatError(f"{path}: contains NaN or Inf entries")


def _npy_header(fh, path: Path) -> tuple[np.dtype, tuple[int, ...]]:
    """The dtype and shape of the NPY file open at fh, once its header and
    its payload's length are checked; fh is left at the payload."""
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
    if not isinstance(descr, str) or descr not in _READ_DTYPES:  # a record array's is a list
        raise ArrayFormatError(f"{path}: unsupported dtype {descr!r} (need <f4, <f8 or <i8)")
    if header["fortran_order"]:
        raise ArrayFormatError(f"{path}: fortran_order arrays are not supported")
    shape = header["shape"]
    if not isinstance(shape, tuple) or len(shape) not in (1, 2) or any(
        type(s) is not int or s < 0 for s in shape  # a bool is an int, but no length
    ):
        raise ArrayFormatError(f"{path}: shape must be a rank-1 or rank-2 tuple, got {shape!r}")
    dtype = np.dtype(_READ_DTYPES[descr])
    expected = math.prod(shape) * dtype.itemsize
    if size - header_end != expected:
        raise ArrayFormatError(
            f"{path}: payload holds {size - header_end} bytes, header implies {expected}"
        )
    return dtype, shape


def _read_payload(fh, path: Path, out: np.ndarray, before: int, expected: int) -> None:
    """Fill the contiguous 1-D ``out`` with the next payload bytes at fh, of
    which ``before`` were read already and ``expected`` are due in all."""
    got = fh.readinto(out.view(np.uint8))
    if got != out.nbytes:  # the file shrank after it was measured
        raise ArrayFormatError(
            f"{path}: payload holds {before + got} bytes, header implies {expected}")


def _read_csv(path: Path) -> np.ndarray:
    """Rows of comma-separated reals after an optional header line, which must
    be as wide as the rows; a UTF-8 byte order mark is dropped."""
    lines = [ln for ln in _read_utf8(path, ArrayFormatError).splitlines() if ln.strip()]
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


def _read_utf8(path, error: type[InputError]) -> str:
    """The text of ``path`` without a UTF-8 byte order mark; bytes that are not
    UTF-8 raise ``error`` naming the file."""
    try:
        return Path(path).read_text("utf-8-sig")
    except UnicodeDecodeError as exc:
        raise error(f"{path}: not UTF-8 text: {exc}") from None


def write_array(path, values) -> None:
    """Write an NPY v1.0 file, always <f8 or <i8 in C order; a failed write
    leaves no file."""
    arr = np.asarray(values)
    if arr.ndim not in (1, 2):
        raise ArrayFormatError(f"{path}: only rank-1 and rank-2 arrays are written, got rank {arr.ndim}")
    write_rows(path, arr.shape, [arr], "<i8" if arr.dtype.kind in "biu" else "<f8")


def write_rows(path, shape: tuple[int, ...], blocks, descr: str = "<f8") -> None:
    """Write the NPY v1.0 ``descr`` file, C order, of an array of ``shape``
    (rank 1 or 2) from its row blocks in order; a failed block leaves no file."""
    with _new_file(path) as fh:
        np.lib.format.write_array_header_1_0(
            fh, {"descr": descr, "fortran_order": False, "shape": tuple(shape)})
        for block in blocks:
            np.ascontiguousarray(block, dtype=descr).tofile(fh)


@contextlib.contextmanager
def _new_file(path):
    """The binary file ``path`` opened for writing, and removed if the block raises."""
    try:
        with open(path, "wb") as fh:
            yield fh
    except BaseException:
        Path(path).unlink(missing_ok=True)
        raise


# ----------------------------------------------------------------- bundles

BUNDLE_KEYS = tuple(f.name for f in fields(DatasetBundle)
                    if f.name not in ("class_count", "feature_factor"))


def read_manifest(path) -> dict:
    """Parse a flat ``key = path`` manifest file; '#' starts a comment and a
    UTF-8 byte order mark is dropped."""
    out = {}
    first_line = {}
    for lineno, raw in enumerate(_read_utf8(path, BundleValidationError).splitlines(), 1):
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
    which checks them; the validation split it loads must not be empty. A
    features file is reduced as it is read (``read_features``)."""
    arrays = {}
    for key, value in manifest.items():
        if key not in BUNDLE_KEYS:
            raise BundleValidationError(f"unknown manifest key {key!r}")
        if isinstance(value, np.ndarray):
            arrays[key] = value
        elif value is not None:
            read = read_features if key == "target_features" else read_array
            arrays[key] = read(value)
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

# An integer vector whose values all lie in 0-9 renders as one row of this
# table per value, the digit and its separator.
_DIGIT_CELLS = np.frombuffer(b"0, 1, 2, 3, 4, 5, 6, 7, 8, 9, ", dtype=np.uint8).reshape(10, 3)

# Real matrices render _CHUNK values per numpy pass, each value into a 48-byte
# cell of twelve 4-character words:
#   columns  0-18  the integer part, right-aligned in 19 zero-padded digits
#   column   19    the decimal point
#   columns 20-39  the fraction, left-aligned in 20 digits
#   columns 40-47  the exponent and the separator that follow the number
# A cell keeps columns [start, 19), the point and the fraction up to its last
# nonzero digit if there is one, and its suffix; one mask compacts a chunk.
# A chunk's arrays take about 355 bytes per value, 1.5 MB at 4096 values (5.8
# MB at 16384, which rendered 10^5 x 2 no faster), and bound a written
# report's peak.
_CHUNK = 1 << 12
_SPLIT = 134217729.0  # 2**27 + 1, Dekker's splitter for 53-bit significands
_SUFFIXES = [exp + sep for exp in ("", "e-05", "e-06") for sep in (", ", "], [", "]]")]
_POINT_WORD, _SUFFIX_WORD = 10_000, 11_000  # where "000." and the suffixes start in words


class _RealTables(NamedTuple):
    words: np.ndarray      # "0000".."9999", "000.".."999.", then each suffix as two words
    frac_len: np.ndarray   # [k][w]: the fraction's length if word k is w and its last nonzero
    keep: np.ndarray       # [(start * 21 + fraction length) * 9 + suffix]: a cell's mask
    pow10: np.ndarray      # 10^0..10^22, exact doubles, and their Dekker halves
    pow10_hi: np.ndarray
    pow10_lo: np.ndarray
    ipow10: np.ndarray     # 10^0..10^18 as int64


@functools.cache
def _real_tables() -> _RealTables:
    """Built on first use, not at import; read-only, as every caller shares them."""
    four = ["%04d" % w for w in range(10_000)]
    text = "".join(four) + "".join("%03d." % w for w in range(1000)) + "".join(
        s.ljust(8) for s in _SUFFIXES)
    sig = np.array([len(w.rstrip("0")) for w in four])
    frac_len = np.stack([np.where(sig > 0, sig + 4 * k, 0) for k in range(5)]).astype(np.int8)
    col = np.arange(48)
    start = np.arange(20)[:, None, None, None]
    frac = np.arange(21)[None, :, None, None]
    suffix = np.array([len(s) for s in _SUFFIXES])[None, None, :, None]
    keep = (((col >= start) & (col < 19)) | ((frac > 0) & (col >= 19) & (col < 20 + frac))
            | ((col >= 40) & (col < 40 + suffix))).reshape(-1, 48)
    pow10 = np.array([float(10**k) for k in range(23)])
    scaled = pow10 * _SPLIT
    pow10_hi = scaled - (scaled - pow10)
    tables = _RealTables(np.frombuffer(text.encode("ascii"), dtype="<u4"), frac_len, keep,
                         pow10, pow10_hi, pow10 - pow10_hi, 10 ** np.arange(19, dtype=np.int64))
    for array in tables:
        array.flags.writeable = False
    return tables


def _times_pow10(a, k, t: _RealTables):
    """a * 10^k as hi + lo exactly (Dekker 1971), for 0 <= k <= 22."""
    p, p_hi, p_lo = t.pow10.take(k), t.pow10_hi.take(k), t.pow10_lo.take(k)
    hi = a * p
    scaled = a * _SPLIT
    a_hi = scaled - (scaled - a)
    a_lo = a - a_hi
    return hi, a_lo * p_lo - (((hi - a_hi * p_hi) - a_lo * p_hi) - a_hi * p_lo)


def _base_10000(v, g, cols) -> None:
    """Write v into g[:, cols] in base 10^4, most significant word first."""
    for c in reversed(cols[1:]):
        q = v // 10_000
        np.subtract(v, q * 10_000, out=g[:, c])
        v = q
    g[:, cols[0]] = v


def _render_reals(x: np.ndarray, first: int, width: int, total: int) -> np.ndarray:
    """The bytes of ``format(v, ".17g")`` and its separator for each value v of
    x, which sits at flat index ``first`` of a ``total``-value matrix ``width``
    wide. A value with 1e-6 < |v| < 1e17 has a decimal exponent e in [-6, 16],
    so 10^(16 - e) is an exact double, and its 17 digits are |v| * 10^(16 - e),
    formed exactly as hi + lo and rounded half to even, which is what CPython's
    correctly rounded conversion prints. Any other value is formatted by Python."""
    t = _real_tables()
    a = np.abs(x)
    fast = (a > 1e-6) & (a < 1e17)
    a[~fast] = 1.0
    e = np.floor(np.log10(a)).astype(np.intp)
    np.clip(e, -6, 16, out=e)
    hi, lo = _times_pow10(a, 16 - e, t)
    # where log10 rounded across a power of ten, hi + lo < 10^16 or >= 10^17
    below = (hi < 1e16) | ((hi == 1e16) & (lo < 0))
    above = (hi > 1e17) | ((hi == 1e17) & (lo >= 0))
    off = np.flatnonzero(below | above)
    if off.size:
        e[off] += above[off].astype(np.intp) - below[off]
        hi[off], lo[off] = _times_pow10(a[off], 16 - e[off], t)
    # hi is an even integer in [1e16, 1e17], so rint(lo) rounds the sum half to
    # even. The sum never rounds up to 10^17: the double below each power of
    # ten from 1e-5 to 1e17 lies more than 8e-17 of it lower.
    d = hi.astype(np.int64) + np.rint(lo).astype(np.int64)

    # the exponent that places the point: exponent notation (e < -4) is laid
    # out as a value in [1, 10); below 1 the integer part is 0 and the
    # fraction -e - 1 zeros, then the 17 digits
    point = np.where(e < -4, 0, e)
    ipart_div = t.ipow10.take(np.minimum(16 - point, 17))
    ipart = d // ipart_div
    rest = d - ipart * ipart_div
    frac_div = t.ipow10.take(np.maximum(-point, 0))
    high = rest // frac_div
    low = (rest - high * frac_div) * t.ipow10.take(np.clip(point + 4, 0, 4))
    high *= t.ipow10.take(np.maximum(point, 0))
    g = np.empty((x.size, 12), dtype=np.intp)  # the cell's words, as indices into t.words
    top = ipart // 1000
    np.subtract(ipart, top * 1000, out=g[:, 4])
    g[:, 4] += _POINT_WORD
    _base_10000(top, g, [0, 1, 2, 3])
    _base_10000(high, g, [5, 6, 7, 8])
    g[:, 9] = low
    frac_len = t.frac_len[0].take(g[:, 5])
    for k in range(1, 5):
        np.maximum(frac_len, t.frac_len[k].take(g[:, 5 + k]), out=frac_len)
    sep = np.zeros(x.size, dtype=np.intp)  # 0 ", ", 1 "], [" at a row's end, 2 "]]" at the last
    sep[(width - 1 - first) % width::width] = 1
    if first + x.size == total:
        sep[-1] = 2
    suffix = np.clip(-4 - e, 0, 2) * 3 + sep
    digits = np.where(point < 0, 1, point + 1)
    negative = np.signbit(x)
    start = 19 - digits - negative
    slow = np.flatnonzero(~fast)
    suffix[slow] = sep[slow]
    np.multiply(suffix, 2, out=g[:, 10])
    g[:, 10] += _SUFFIX_WORD
    np.add(g[:, 10], 1, out=g[:, 11])

    cells = t.words.take(g).view(np.uint8)
    minus = np.flatnonzero(negative & fast)
    cells[minus, 18 - digits[minus]] = ord("-")
    if slow.size:
        # Python's text ends at column 19 if it has at most 4 characters (0 or
        # -0); a longer one is laid out as 3 integer digits and a fraction
        texts = [format(v, ".17g") for v in x[slow].tolist()]
        length = np.fromiter(map(len, texts), dtype=np.intp, count=slow.size)
        start[slow] = np.where(length > 4, 16, 19 - length)
        frac_len[slow] = np.maximum(length - 4, 0)
        ends = np.cumsum(length)
        cells[np.repeat(slow, length),
              np.arange(ends[-1]) + np.repeat(start[slow] - ends + length, length)] = (
            np.frombuffer("".join(texts).encode("ascii"), dtype=np.uint8))
    return cells[t.keep.take((start * 21 + frac_len) * 9 + suffix, axis=0)]


def _json_pieces(value, indent: int):
    """The JSON text of ``value`` as UTF-8 pieces in order, each made once:
    a dict key by key, a list item by item, a verdict vector whole and a
    real matrix one chunk at a time."""
    if (isinstance(value, np.ndarray) and value.ndim == 1 and value.dtype.kind in "biu"
            and value.size and value.min() >= 0 and value.max() <= 9):  # every verdict vector
        yield from (b"[", _DIGIT_CELLS.take(value, axis=0).reshape(-1)[:-2], b"]")
    elif isinstance(value, np.ndarray) and value.ndim == 2 and value.dtype.kind == "f":
        if not numerics.all_finite(value):
            bad = value[~np.isfinite(value)][0]
            raise ValueError(f"report holds a non-finite real: {float(bad)}")
        if not value.size:
            yield ("[%s]" % ", ".join(["[]"] * value.shape[0])).encode("ascii")
            return
        flat = np.ascontiguousarray(value, dtype=np.float64).reshape(-1)
        yield b"[["
        for lo in range(0, flat.size, _CHUNK):
            yield _render_reals(flat[lo:lo + _CHUNK], lo, value.shape[1], flat.size)
    elif isinstance(value, dict):
        pad = "  " * indent
        sep = "{\n"
        for k in value:
            yield f"{sep}{pad}  {_json_scalar(str(k))}: ".encode("utf-8")
            yield from _json_pieces(value[k], indent + 1)
            sep = ",\n"
        yield f"\n{pad}}}".encode("ascii") if value else b"{}"
    elif isinstance(value, (list, tuple, np.ndarray)):
        seq = list(value)
        sep = b"["
        for v in seq:
            yield sep
            yield from _json_pieces(v, indent)
            sep = b", "
        yield b"]" if seq else b"[]"
    else:
        yield _json_scalar(value).encode("utf-8")


def _json_scalar(value) -> str:
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
    raise TypeError(f"unserializable report value of type {type(value)!r}")


def _fmt_json(value, indent: int) -> str:
    return b"".join(_json_pieces(value, indent)).decode("utf-8")


def to_json_text(value) -> str:
    """Deterministic JSON with 17-significant-digit reals, newline-terminated."""
    return _fmt_json(value, 0) + "\n"


def _report_doc(report: EstimateReport) -> dict:
    """The report's fields in their fixed key order."""
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
    return doc


def report_to_json(report: EstimateReport) -> str:
    """Serialize with the fixed key order; reals carry 17 significant digits."""
    return to_json_text(_report_doc(report))


def write_report(report: EstimateReport, path) -> None:
    """Write ``report_to_json``'s text, each piece as soon as it is rendered,
    so the whole text is never held; a failed render or write leaves no file."""
    with _new_file(path) as fh:
        for piece in _json_pieces(_report_doc(report), 0):
            fh.write(piece)
        fh.write(b"\n")
