"""Dense-tensor engine with reverse-mode automatic differentiation.

Provides exactly the operators the angle-interpolation network needs:
2-D convolution (odd square kernels with zero "same" padding), transposed
convolution with a 2x2 kernel and per-axis stride 1 or 2, 2x2 average
pooling, ReLU, channel concatenation, a mean-squared-error loss, and an
Adam parameter update.

Arrays are row-major numpy buffers. float32 is the working precision;
float64 is supported end to end so gradients can be verified against
central finite differences. A convolution is a sum of shifted GEMMs, one
per kernel tap, over a zero-ringed channel-major copy of its input: taps
are summed outer, in a fixed order, and channels inner, inside each GEMM;
weight gradients sum fixed column tiles in order. Single-threaded runs are
therefore bit-reproducible.
"""

from __future__ import annotations

from typing import Callable, Iterable, Optional, Sequence

import numpy as np

__all__ = [
    "Tensor",
    "Parameter",
    "ShapeMismatchError",
    "MissingGradientError",
    "no_grad",
    "conv2d",
    "conv_transpose2d",
    "conv_transpose2d_adjoint",
    "avgpool2x2",
    "relu",
    "concat_channels",
    "mse_loss",
    "adam_step",
    "numerical_gradient",
    "gradient_check",
]

_FLOAT_DTYPES = (np.float32, np.float64)


class ShapeMismatchError(ValueError):
    """Raised when operand shapes are incompatible with an operator."""


class MissingGradientError(RuntimeError):
    """Raised by adam_step when a parameter has no accumulated gradient."""


_grad_enabled = True


class no_grad:
    """Context manager that disables graph recording inside its block."""

    def __enter__(self):
        global _grad_enabled
        self._prev = _grad_enabled
        _grad_enabled = False
        return self

    def __exit__(self, exc_type, exc, tb):
        global _grad_enabled
        _grad_enabled = self._prev
        return False


def _as_float_array(data) -> np.ndarray:
    arr = np.asarray(data)
    if arr.dtype not in _FLOAT_DTYPES:
        arr = arr.astype(np.float32)
    return arr


class Tensor:
    """A numpy array plus the bookkeeping needed for reverse-mode autodiff."""

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        self.data = _as_float_array(data)
        self.requires_grad = bool(requires_grad)
        self.grad: Optional[np.ndarray] = None
        self._parents: tuple = ()
        self._backward: Optional[Callable[[np.ndarray], tuple]] = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def size(self):
        return self.data.size

    def backward(self, grad: Optional[np.ndarray] = None) -> None:
        """Backpropagate from this tensor through the recorded graph."""
        if not self.requires_grad:
            raise RuntimeError("backward() on a tensor that does not require grad")
        if grad is None:
            if self.data.size != 1:
                raise RuntimeError("backward() without a gradient requires a scalar")
            grad = np.ones_like(self.data)
        else:
            grad = np.asarray(grad, dtype=self.data.dtype)
            if grad.shape != self.data.shape:
                raise ShapeMismatchError(
                    f"seed gradient shape {grad.shape} != tensor shape {self.data.shape}"
                )

        # Iterative post-order topological sort; recursion would be fragile
        # for long chains.
        order: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in seen:
                    stack.append((parent, False))

        self.grad = grad if self.grad is None else self.grad + grad
        for node in reversed(order):
            if node._backward is None or node.grad is None:
                continue
            parent_grads = node._backward(node.grad)
            for parent, pgrad in zip(node._parents, parent_grads):
                if pgrad is None or not parent.requires_grad:
                    continue
                if parent.grad is None:
                    parent.grad = pgrad
                else:
                    parent.grad = parent.grad + pgrad

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype}, requires_grad={self.requires_grad})"


def _from_op(data: np.ndarray, parents: Sequence[Tensor], backward) -> Tensor:
    requires = _grad_enabled and any(p.requires_grad for p in parents)
    out = Tensor(data, requires_grad=requires)
    if requires:
        out._parents = tuple(parents)
        out._backward = backward
    return out


def _require_tensor(x, name: str) -> Tensor:
    if not isinstance(x, Tensor):
        raise TypeError(f"{name} must be a Tensor, got {type(x).__name__}")
    return x


# ---------------------------------------------------------------------------
# convolution


def _require_4d(x, name: str, op: str) -> Tensor:
    x = _require_tensor(x, name)
    if x.data.ndim != 4:
        raise ShapeMismatchError(f"{op} {name} must be 4-D, got shape {x.shape}")
    return x


def _check_bias(bias, c_out: int, op: str) -> Optional[Tensor]:
    if bias is None:
        return None
    bias = _require_tensor(bias, "bias")
    if bias.shape != (c_out,):
        raise ShapeMismatchError(f"{op} bias shape {bias.shape} != ({c_out},)")
    return bias


def _conv_op(out: np.ndarray, x: Tensor, weight: Tensor, bias: Optional[Tensor], grads) -> Tensor:
    """Record a convolution's output, plus its bias, as a node of the graph.

    grads(g) returns (gx, gw); a bias is the third parent, and its gradient
    sums g over batch and space.
    """
    if bias is None:
        return _from_op(np.ascontiguousarray(out), (x, weight), grads)

    def backward(g: np.ndarray):
        gb = g.sum(axis=(0, 2, 3)) if bias.requires_grad else None
        return grads(g) + (gb,)

    return _from_op(out + bias.data[None, :, None, None], (x, weight, bias), backward)


def _grid(shape, k: int) -> tuple[int, list[int]]:
    """Grid length of a _ringed [B,C,H,W] array and each k x k tap's column offset."""
    b, _, h, wd = shape
    row = wd + k - 1
    return b * (h + k - 1) * row, [ky * row + kx for ky in range(k) for kx in range(k)]


def _ringed(x: np.ndarray, k: int) -> np.ndarray:
    """Channel-major, zero-ringed, flat copy of x [B,C,H,W] for a k x k kernel.

    With p = k // 2, pixel (b, i, j) of channel c sits at column
    (b*(H+2p) + i + p)*(W+2p) + j + p. A zero tail as long as the largest
    tap offset lets every tap's window run the full grid.
    """
    b, c, h, wd = x.shape
    p = k // 2
    grid, offsets = _grid(x.shape, k)
    xf = np.zeros((c, grid + offsets[-1]), dtype=x.dtype)
    xf[:, :grid].reshape(c, b, h + 2 * p, -1)[:, :, p : p + h, p : p + wd] = x.transpose(1, 0, 2, 3)
    return xf


# Grid columns are visited in tiles of this many bytes over the rows in use,
# so that each tap's shifted product re-reads the input from cache.
_TILE_BYTES = 1 << 19


def _tile_columns(rows: int, itemsize: int) -> int:
    return max(1, _TILE_BYTES // (rows * itemsize))


def _correlate(xf: np.ndarray, w: np.ndarray, shape) -> np.ndarray:
    """"Same" cross-correlation of a _ringed input with w [C_out,C_in,k,k].

    shape is the input's [B,C_in,H,W]; the output is [B,C_out,H,W]. Tap
    (ky, kx) is one GEMM over the input shifted by ky*(W+2p) + kx columns;
    the ring columns of the grid are computed and dropped.
    """
    b, _, h, wd = shape
    c_out, c_in, k, _ = w.shape
    grid, offsets = _grid(shape, k)
    taps = np.ascontiguousarray(w.transpose(2, 3, 0, 1)).reshape(k * k, c_out, c_in)
    # a GEMM with K = 1 is several times slower in OpenBLAS than a broadcast multiply
    product = np.multiply if c_in == 1 else np.matmul
    dtype = np.result_type(xf, w)
    n = _tile_columns(c_in + 2 * c_out, dtype.itemsize)
    out = np.empty((c_out, grid), dtype=dtype)
    term = np.empty((c_out, min(n, grid)), dtype=dtype)
    for c0 in range(0, grid, n):
        acc = out[:, c0 : c0 + n]
        m = acc.shape[1]
        product(taps[0], xf[:, c0 : c0 + m], out=acc)
        for tap, off in zip(taps[1:], offsets[1:]):
            product(tap, xf[:, c0 + off : c0 + off + m], out=term[:, :m])
            acc += term[:, :m]
    out = out.reshape(c_out, b, h + k - 1, -1)[:, :, :h, :wd]
    return np.ascontiguousarray(out.transpose(1, 0, 2, 3))


def conv2d(x: Tensor, weight: Tensor, bias: Optional[Tensor] = None) -> Tensor:
    """Cross-correlate x [B,C_in,H,W] with weight [C_out,C_in,kh,kw].

    Zero "same" padding, stride 1, odd square kernels only. Output is
    [B,C_out,H,W].
    """
    x = _require_4d(x, "input", "conv2d")
    weight = _require_4d(weight, "weight", "conv2d")
    c_in = x.shape[1]
    c_out, wc_in, kh, kw = weight.shape
    if wc_in != c_in:
        raise ShapeMismatchError(
            f"conv2d channel mismatch: input shape {x.shape} has C_in={c_in}, "
            f"weight shape {weight.shape} expects C_in={wc_in}"
        )
    if kh != kw or kh % 2 == 0:
        raise ShapeMismatchError(f"conv2d kernel must be odd and square, got {kh}x{kw}")
    bias = _check_bias(bias, c_out, "conv2d")

    def grads(g: np.ndarray):
        gx = gw = None
        gf = _ringed(g, kh)  # one copy serves both products
        if x.requires_grad:
            # full correlation with the flipped kernel, channels swapped
            gx = _correlate(gf, weight.data.transpose(1, 0, 2, 3)[:, :, ::-1, ::-1], g.shape)
        if weight.requires_grad:
            # g's pixel at column q + offsets[centre] meets tap t of x at q + offsets[t];
            # the zero ring of gf masks every q that is not an output pixel
            grid, offsets = _grid(g.shape, kh)
            gs = gf[:, offsets[len(offsets) // 2] :]
            xf = _ringed(x.data, kh)  # rebuilt: keeping the forward's costs a copy of x a layer
            taps = np.zeros((kh * kw, c_out, c_in), dtype=g.dtype)
            n = _tile_columns(c_in + c_out, g.itemsize)
            for c0 in range(0, grid, n):
                gt = gs[:, c0 : min(c0 + n, grid)]
                for t, off in enumerate(offsets):
                    taps[t] += gt @ xf[:, c0 + off : c0 + off + gt.shape[1]].T
            gw = np.ascontiguousarray(taps.reshape(kh, kw, c_out, c_in).transpose(2, 3, 0, 1))
        return gx, gw

    return _conv_op(_correlate(_ringed(x.data, kh), weight.data, x.shape), x, weight, bias, grads)


# ---------------------------------------------------------------------------
# transposed convolution (2x2 kernel, per-axis stride 1 or 2)


def _check_stride(stride) -> tuple[int, int]:
    try:
        sh, sw = int(stride[0]), int(stride[1])
    except (TypeError, IndexError):
        raise ShapeMismatchError(f"stride must be a pair, got {stride!r}") from None
    if sh not in (1, 2) or sw not in (1, 2):
        raise ShapeMismatchError(f"stride components must be 1 or 2, got {(sh, sw)}")
    return sh, sw


def _pad_taps(y: np.ndarray, sh: int, sw: int) -> np.ndarray:
    """Append the zero row (column) that _tap_windows reads on a stride-1 axis."""
    if sh == 2 and sw == 2:
        return y
    return np.pad(y, ((0, 0), (0, 0), (0, 2 - sh), (0, 2 - sw)))


def _tap_windows(y: np.ndarray, sh: int, sw: int, h: int, wd: int):
    """Yield (di, dj, window) for each tap of the 2x2 kernel.

    Tap (di, dj) of input pixel (i, j) lands on (sh*i + di, sw*j + dj) of y,
    which is output-shaped plus one trailing row (column) on a stride-1
    axis; window is the [B, C, h, wd] view of y holding those pixels.
    """
    for di in range(2):
        for dj in range(2):
            yield di, dj, y[:, :, di::sh, dj::sw][:, :, :h, :wd]


def _convt_adjoint(yp: np.ndarray, weight: np.ndarray, sh: int, sw: int, h: int, wd: int) -> np.ndarray:
    """conv_transpose2d_adjoint of a _pad_taps-padded y, mapping down to [B, C_in, h, wd]."""
    out = np.zeros((yp.shape[0], weight.shape[0], h, wd), dtype=yp.dtype)
    for di, dj, win in _tap_windows(yp, sh, sw, h, wd):
        out += np.tensordot(win, weight[:, :, di, dj], axes=([1], [1])).transpose(0, 3, 1, 2)
    return out


def conv_transpose2d_adjoint(y: np.ndarray, weight: np.ndarray, stride) -> np.ndarray:
    """The strided 2x2 correlation whose adjoint conv_transpose2d computes.

    Maps [B, C_out, sh*H, sw*W] down to [B, C_in, H, W]. For a stride-1
    axis the window that would read past the edge sees an implicit zero
    (the transposed op drops that tap). Plain ndarray helper, used by
    adjointness tests.
    """
    sh, sw = _check_stride(stride)
    y = np.asarray(y)
    hy, wy = y.shape[2:]
    if hy % sh or wy % sw:
        raise ShapeMismatchError(
            f"adjoint input spatial dims {(hy, wy)} not divisible by stride {(sh, sw)}"
        )
    return _convt_adjoint(_pad_taps(y, sh, sw), weight, sh, sw, hy // sh, wy // sw)


def conv_transpose2d(
    x: Tensor, weight: Tensor, bias: Optional[Tensor] = None, stride=(2, 2)
) -> Tensor:
    """Transposed convolution: [B,C_in,H,W] -> [B,C_out,sh*H,sw*W].

    weight is [C_in, C_out, 2, 2]; stride components are 1 or 2. The map is
    the exact adjoint of conv_transpose2d_adjoint with the same weight and
    stride (verified to float round-off by the test suite).
    """
    x = _require_4d(x, "input", "conv_transpose2d")
    weight = _require_tensor(weight, "weight")
    sh, sw = _check_stride(stride)
    if weight.data.ndim != 4 or weight.shape[2:] != (2, 2):
        raise ShapeMismatchError(
            f"conv_transpose2d weight must be [C_in,C_out,2,2], got {weight.shape}"
        )
    b, c_in, h, wd = x.shape
    if weight.shape[0] != c_in:
        raise ShapeMismatchError(
            f"conv_transpose2d channel mismatch: input C_in={c_in}, "
            f"weight expects C_in={weight.shape[0]}"
        )
    c_out = weight.shape[1]
    bias = _check_bias(bias, c_out, "conv_transpose2d")

    # scatter each tap into a zero buffer with _tap_windows' extra row/column
    t = np.tensordot(x.data, weight.data, axes=([1], [0]))  # [B, H, W, C_out, 2, 2]
    out = np.zeros((b, c_out, sh * h + 2 - sh, sw * wd + 2 - sw), dtype=x.dtype)
    for di, dj, win in _tap_windows(out, sh, sw, h, wd):
        win += t[:, :, :, :, di, dj].transpose(0, 3, 1, 2)

    def grads(g: np.ndarray):
        gx = gw = None
        gp = _pad_taps(g, sh, sw)
        if x.requires_grad:
            gx = _convt_adjoint(gp, weight.data, sh, sw, h, wd)
        if weight.requires_grad:
            gw = np.empty_like(weight.data)
            for di, dj, win in _tap_windows(gp, sh, sw, h, wd):
                gw[:, :, di, dj] = np.tensordot(x.data, win, axes=([0, 2, 3], [0, 2, 3]))
        return gx, gw

    return _conv_op(out[:, :, : sh * h, : sw * wd], x, weight, bias, grads)


# ---------------------------------------------------------------------------
# pooling, activation, concat, loss


def avgpool2x2(x: Tensor) -> Tensor:
    """Non-overlapping 2x2 mean pooling; spatial dims must be even."""
    x = _require_4d(x, "input", "avgpool2x2")
    b, c, h, w = x.shape
    if h % 2 or w % 2:
        raise ShapeMismatchError(f"avgpool2x2 needs even spatial dims, got {h}x{w}")
    out = x.data.reshape(b, c, h // 2, 2, w // 2, 2).mean(axis=(3, 5))

    def backward(g: np.ndarray):
        gx = np.repeat(np.repeat(g, 2, axis=2), 2, axis=3) * g.dtype.type(0.25)
        return (gx,)

    return _from_op(out, (x,), backward)


def relu(x: Tensor) -> Tensor:
    """Elementwise max(x, 0); the subgradient at exactly 0 is 0."""
    x = _require_tensor(x, "input")
    mask = x.data > 0
    out = np.where(mask, x.data, x.data.dtype.type(0))

    def backward(g: np.ndarray):
        return (g * mask,)

    return _from_op(out, (x,), backward)


def concat_channels(a: Tensor, b: Tensor) -> Tensor:
    """Concatenate two [B,C,H,W] tensors along the channel axis."""
    a = _require_4d(a, "first input", "concat_channels")
    b = _require_4d(b, "second input", "concat_channels")
    if a.shape[0] != b.shape[0] or a.shape[2:] != b.shape[2:]:
        raise ShapeMismatchError(
            f"concat_channels needs matching batch and spatial dims, got {a.shape} and {b.shape}"
        )
    ca = a.shape[1]
    out = np.concatenate([a.data, b.data], axis=1)

    def backward(g: np.ndarray):
        return (
            np.ascontiguousarray(g[:, :ca]),
            np.ascontiguousarray(g[:, ca:]),
        )

    return _from_op(out, (a, b), backward)


def mse_loss(pred: Tensor, target: Tensor) -> Tensor:
    """Mean of squared differences, as a scalar tensor."""
    pred = _require_tensor(pred, "prediction")
    target = _require_tensor(target, "target")
    if pred.shape != target.shape:
        raise ShapeMismatchError(
            f"mse_loss shape mismatch: {pred.shape} vs {target.shape}"
        )
    diff = pred.data - target.data
    out = np.asarray((diff * diff).mean(), dtype=pred.dtype)

    def backward(g: np.ndarray):
        scale = g * (2.0 / diff.size)
        gp = (diff * scale).astype(pred.dtype, copy=False)
        gt = None
        if target.requires_grad:
            gt = -gp
        return gp, gt

    return _from_op(out, (pred, target), backward)


# ---------------------------------------------------------------------------
# optimizer


class Parameter:
    """A named trainable tensor with Adam moment buffers and a step count."""

    __slots__ = ("name", "tensor", "m", "v", "step")

    def __init__(self, name: str, data):
        self.name = name
        self.tensor = Tensor(data, requires_grad=True)
        self.m = np.zeros_like(self.tensor.data)
        self.v = np.zeros_like(self.tensor.data)
        self.step = 0

    @property
    def data(self) -> np.ndarray:
        return self.tensor.data

    @data.setter
    def data(self, value) -> None:
        self.tensor.data = _as_float_array(value)

    @property
    def grad(self):
        return self.tensor.grad

    def __repr__(self):
        return f"Parameter({self.name!r}, shape={self.tensor.data.shape})"


_ADAM_B1 = 0.9
_ADAM_B2 = 0.999
_ADAM_EPS = 1e-8


def adam_step(params: Iterable[Parameter], lr: float = 1e-3) -> None:
    """One bias-corrected Adam update over params; gradients are cleared.

    theta <- theta - lr * m_hat / (sqrt(v_hat) + eps) with
    m_hat = m / (1 - b1^t) and v_hat = v / (1 - b2^t), using Adam's
    standard b1 = 0.9, b2 = 0.999 and eps = 1e-8.
    """
    for p in params:
        g = p.tensor.grad
        if g is None:
            raise MissingGradientError(f"parameter {p.name!r} has no gradient")
        p.step += 1
        dt = p.tensor.data.dtype.type
        b1, b2 = dt(_ADAM_B1), dt(_ADAM_B2)
        p.m = b1 * p.m + (dt(1) - b1) * g
        p.v = b2 * p.v + (dt(1) - b2) * (g * g)
        m_hat = p.m / (dt(1) - b1 ** p.step)
        v_hat = p.v / (dt(1) - b2 ** p.step)
        p.tensor.data = p.tensor.data - dt(lr) * m_hat / (np.sqrt(v_hat) + dt(_ADAM_EPS))
        p.tensor.grad = None


# ---------------------------------------------------------------------------
# finite-difference verification


def numerical_gradient(fn: Callable[[], Tensor], wrt: Tensor, h: float = 1e-5) -> np.ndarray:
    """Central-difference gradient of a scalar-valued fn with respect to wrt.

    Perturbs wrt.data in place (restoring it), so fn must re-read wrt on
    every call. Use float64 tensors; float32 differences drown in rounding.
    """
    base = wrt.data
    grad = np.zeros_like(base)
    flat = base.ravel()
    gflat = grad.ravel()
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        with no_grad():
            hi = float(fn().data)
        flat[i] = orig - h
        with no_grad():
            lo = float(fn().data)
        flat[i] = orig
        gflat[i] = (hi - lo) / (2.0 * h)
    return grad


def gradient_check(
    fn: Callable[[], Tensor],
    tensors: Sequence[Tensor],
    h: float = 1e-5,
    floor: float = 1e-6,
) -> float:
    """Max elementwise relative error between analytic and numeric gradients.

    Relative error uses max(|analytic|, |numeric|, floor) as denominator so
    structurally-zero entries do not divide by zero.
    """
    for t in tensors:
        t.grad = None
    out = fn()
    out.backward()
    worst = 0.0
    for t in tensors:
        if t.grad is None:
            raise MissingGradientError("tensor received no gradient during the check")
        num = numerical_gradient(fn, t, h=h)
        denom = np.maximum(np.maximum(np.abs(t.grad), np.abs(num)), floor)
        rel = np.abs(t.grad - num) / denom
        worst = max(worst, float(rel.max()))
    return worst
