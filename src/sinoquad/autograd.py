"""Dense-tensor engine with reverse-mode automatic differentiation.

Provides exactly the operators the angle-interpolation network needs:
2-D convolution (odd square kernels with zero "same" padding), transposed
convolution with a 2x2 kernel and per-axis stride 1 or 2, 2x2 average
pooling, ReLU, channel concatenation, a mean-squared-error loss, and an
Adam parameter update.

Arrays are row-major numpy buffers. float32 is the working precision;
float64 is supported end to end so gradients can be verified against
central finite differences. An op computes in the wider of its operands'
dtypes, and each operand's gradient comes back in that operand's dtype.

Every reduction has a fixed order:

- A convolution is a sum of shifted GEMMs, one per kernel tap, over a
  zero-ringed channel-major copy of its input: taps are summed outer, in a
  fixed order, and channels inner, inside each GEMM; weight gradients sum
  fixed column tiles in order.
- A transposed convolution's forward pass is one GEMM for all four taps
  (a sub-pixel convolution); where stride-1 taps overlap they are added in
  tap order. Its input gradient is four per-tap GEMMs summed in tap order,
  and its weight gradient is one GEMM per tap.
- 2x2 pooling sums each block as (a + b) + (c + d), top row first, and
  multiplies by 0.25; at width 2 it sums left to right, ((a + b) + c) + d.
  Both are the orders of numpy's mean, so the two agree bit for bit.
- ReLU is fmax(x, 0), so NaN maps to 0.

conv2d(x, w, b, relu=True) adds the bias and applies the ReLU in place on
its own output, with the same bits as relu(conv2d(x, w, b)). The graph
then keeps one activation per layer, the ReLU's output, which is also the
backward pass's mask; no pre-activation is saved. A convolution's backward
pass drops each temporary (masked gradient, ringed copies, full-grid
gradient) as soon as it has been read.

Single-threaded runs are therefore bit-reproducible; the bits of a GEMM
depend on the BLAS thread count.

backward() consumes the graph it runs through: once an op's backward has
run, its output drops its gradient, its backward and its parents, so a
training step holds one graph, not the last step's as well. Only leaves
(inputs and Parameters) keep .grad. A second backward() that reaches a
consumed op raises RuntimeError rather than losing gradients silently.
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

    def backward(self, grad: Optional[np.ndarray] = None) -> None:
        """Backpropagate from this tensor, consuming the recorded graph.

        Leaves accumulate into .grad; every op output reached is released.
        """
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
        while order:
            # popped, so a node the caller does not hold is freed once its children are
            node = order.pop()
            if node._backward is None:
                continue  # a leaf keeps its gradient
            if node.grad is not None:
                parent_grads = node._backward(node.grad)
                for parent, pgrad in zip(node._parents, parent_grads):
                    if pgrad is None or not parent.requires_grad:
                        continue
                    # an op computes in its operands' widest dtype; a parent keeps its own
                    pgrad = pgrad.astype(parent.data.dtype, copy=False)
                    if parent.grad is None:
                        parent.grad = pgrad
                    else:
                        parent.grad = parent.grad + pgrad
            node.grad = None
            node._parents = ()
            node._backward = _consumed

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype}, requires_grad={self.requires_grad})"


def _consumed(g: np.ndarray):
    raise RuntimeError("graph already consumed by backward()")


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


def _conv_op(out: np.ndarray, x: Tensor, weight: Tensor, bias: Optional[Tensor], grads,
             relu: bool = False) -> Tensor:
    """Record a convolution's output, plus its bias and an optional ReLU, as a node of the graph.

    out is the op's own buffer or a strided view of one. A contiguous out
    takes the bias and the ReLU in place; any other is first copied, with
    the bias added in the same pass, into a new contiguous array. The node
    keeps that one array, so a fused ReLU saves no pre-activation: its
    backward masks g where the output is not positive, as relu's does.

    grads(held) pops the output gradient, masked, from the one-item list
    held, so that it can drop it once it is used, and returns (gx, gw). A
    bias is the third parent; its gradient sums the masked g over batch
    and space.
    """
    if bias is None:
        data = np.ascontiguousarray(out)
    else:
        dest = out if out.flags.c_contiguous else np.empty(out.shape, out.dtype)
        data = np.add(out, bias.data[None, :, None, None], out=dest)
    if relu:
        np.fmax(data, data.dtype.type(0), out=data)

    def backward(g: np.ndarray):
        if relu:
            g = g * (data > 0)
        gb = g.sum(axis=(0, 2, 3)) if bias is not None and bias.requires_grad else None
        held = [g]
        del g
        return grads(held) + (gb,)  # zip with two parents drops a bias-less op's None

    return _from_op(data, (x, weight) if bias is None else (x, weight, bias), backward)


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

    shape is the input's [B,C_in,H,W]; the output is a [B,C_out,H,W] view
    of the channel-major result. Tap (ky, kx) is one GEMM over the input
    shifted by ky*(W+2p) + kx columns; the ring columns of the grid are
    computed and dropped.
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
    return out.reshape(c_out, b, h + k - 1, -1)[:, :, :h, :wd].transpose(1, 0, 2, 3)


def conv2d(x: Tensor, weight: Tensor, bias: Optional[Tensor] = None, relu: bool = False) -> Tensor:
    """Cross-correlate x [B,C_in,H,W] with weight [C_out,C_in,kh,kw].

    Zero "same" padding, stride 1, odd square kernels only. Output is
    [B,C_out,H,W]. The bias is added, and with relu=True fmax(., 0) is
    applied, in place on the op's own output, bit for bit as
    relu(conv2d(x, weight, bias)); the graph then keeps only the activated
    output, which the backward pass reads as relu's mask.
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

    def grads(held: list):
        # each temporary is dropped once read: besides the incoming gradient,
        # at most two grid-sized arrays are alive at once
        g = held.pop()
        shape = g.shape
        gf = _ringed(g, kh)  # one copy serves both products
        del g
        gx = gw = None
        if weight.requires_grad:
            # g's pixel at column q + offsets[centre] meets tap t of x at q + offsets[t];
            # the zero ring of gf masks every q that is not an output pixel
            grid, offsets = _grid(shape, kh)
            gs = gf[:, offsets[len(offsets) // 2] :]
            xf = _ringed(x.data, kh)  # rebuilt: keeping the forward's costs a copy of x a layer
            taps = np.zeros((kh * kw, c_out, c_in), dtype=gf.dtype)
            n = _tile_columns(c_in + c_out, gf.itemsize)
            for c0 in range(0, grid, n):
                gt = gs[:, c0 : min(c0 + n, grid)]
                for t, off in enumerate(offsets):
                    taps[t] += gt @ xf[:, c0 + off : c0 + off + gt.shape[1]].T
            del xf
            gw = np.ascontiguousarray(taps.reshape(kh, kw, c_out, c_in).transpose(2, 3, 0, 1))
        if x.requires_grad:
            # full correlation with the flipped kernel, channels swapped
            gx = _correlate(gf, weight.data.transpose(1, 0, 2, 3)[:, :, ::-1, ::-1], shape)
            del gf
            gx = np.ascontiguousarray(gx)
        return gx, gw

    out = _correlate(_ringed(x.data, kh), weight.data, x.shape)
    return _conv_op(out, x, weight, bias, grads, relu)


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


def _tap_windows(y: np.ndarray, sh: int, sw: int, h: int, wd: int):
    """Yield (di, dj, window) for each tap of the 2x2 kernel.

    Tap (di, dj) of input pixel (i, j) lands on (sh*i + di, sw*j + dj) of
    the output-shaped y; window is the [B, C, h, wd] view of y holding those
    pixels, one row (column) short where a stride-1 axis's last pixel's tap
    falls past the edge.
    """
    for di in range(2):
        for dj in range(2):
            yield di, dj, y[:, :, di::sh, dj::sw][:, :, :h, :wd]


def _convt_grads(g: np.ndarray, weight: np.ndarray, sh: int, sw: int, h: int, wd: int,
                 x: Optional[np.ndarray] = None, wrt_x: bool = True):
    """(gx, gw) of conv_transpose2d from output gradient g, one gather per tap.

    Each tap's window of g is copied into one reused [C_out, B*h*wd] buffer
    g_t; a tap that would read past the edge of a stride-1 axis reads zero.
    With wrt_x, gx [B, C_in, h, wd] is the op's adjoint applied to g: the
    GEMMs weight[:, :, di, dj] @ g_t summed in tap order. With x, gw is one
    GEMM x[C_in, B*h*wd] @ g_t.T per tap. A gradient not asked for is None.
    """
    b, c_out = g.shape[:2]
    c_in = weight.shape[0]
    taps = np.ascontiguousarray(weight.transpose(2, 3, 0, 1))  # [2, 2, C_in, C_out]
    gx = gw = None
    if x is not None:
        xm = x.transpose(1, 0, 2, 3).reshape(c_in, -1)
        gw = np.empty(weight.shape, dtype=np.result_type(g, x))
    gt = np.empty((c_out, b, h, wd), dtype=g.dtype)
    flat = gt.reshape(c_out, -1)
    for di, dj, win in _tap_windows(g, sh, sw, h, wd):
        rows, cols = win.shape[2:]
        gt[:, :, rows:] = 0
        gt[:, :, :, cols:] = 0
        gt[:, :, :rows, :cols] = win.transpose(1, 0, 2, 3)
        if wrt_x:
            term = taps[di, dj] @ flat
            gx = term if gx is None else np.add(gx, term, out=gx)
        if gw is not None:
            gw[:, :, di, dj] = xm @ flat.T
    if wrt_x:
        gx = np.ascontiguousarray(gx.reshape(c_in, b, h, wd).transpose(1, 0, 2, 3))
    return gx, gw


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
    return _convt_grads(y, np.asarray(weight), sh, sw, hy // sh, wy // sw)[0]


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

    # one GEMM gives all four tap planes. Each goes to its strided window of
    # the output, in tap order: copied where no earlier tap wrote, else added.
    # The output is allocated before the GEMM's temporaries; the other order
    # fragments the heap and raised the peak RSS of training by a few MB.
    out = np.empty((b, c_out, sh * h, sw * wd), dtype=np.result_type(x.data, weight.data))
    w4 = weight.data.transpose(2, 3, 1, 0).reshape(4 * c_out, c_in)
    planes = (w4 @ x.data.transpose(1, 0, 2, 3).reshape(c_in, -1)).reshape(2, 2, c_out, b, h, wd)
    for di, dj, win in _tap_windows(out, sh, sw, h, wd):
        plane = planes[di, dj].transpose(1, 0, 2, 3)[:, :, : win.shape[2], : win.shape[3]]
        if (di == 0 or sh == 2) and (dj == 0 or sw == 2):
            win[...] = plane
        else:
            win += plane

    def grads(held: list):
        return _convt_grads(held.pop(), weight.data, sh, sw, h, wd,
                            x.data if weight.requires_grad else None, x.requires_grad)

    return _conv_op(out, x, weight, bias, grads)


# ---------------------------------------------------------------------------
# pooling, activation, concat, loss


def avgpool2x2(x: Tensor) -> Tensor:
    """Non-overlapping 2x2 mean pooling; spatial dims must be even."""
    x = _require_4d(x, "input", "avgpool2x2")
    b, c, h, w = x.shape
    if h % 2 or w % 2:
        raise ShapeMismatchError(f"avgpool2x2 needs even spatial dims, got {h}x{w}")
    blocks = x.data.reshape(b, c, h // 2, 2, w // 2, 2)
    tl, tr, bl, br = (blocks[:, :, :, i, :, j] for i in (0, 1) for j in (0, 1))
    # numpy's mean(axis=(3, 5)) order; at w == 2 it sums each block as one run of four
    total = (tl + tr) + (bl + br) if w > 2 else ((tl + tr) + bl) + br
    out = total * x.dtype.type(0.25)

    def backward(g: np.ndarray):
        # widen each row, then write it to both of its block's rows
        rows = np.repeat(g * g.dtype.type(0.25), 2, axis=3)
        gx = np.empty((b, c, h // 2, 2, w), dtype=g.dtype)
        gx[...] = rows[:, :, :, None]
        return (gx.reshape(b, c, h, w),)

    return _from_op(out, (x,), backward)


def relu(x: Tensor) -> Tensor:
    """Elementwise max(x, 0); NaN maps to 0 and the subgradient at 0 is 0."""
    x = _require_tensor(x, "input")
    out = np.fmax(x.data, x.data.dtype.type(0))

    def backward(g: np.ndarray):
        return (g * (out > 0),)

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


class Parameter(Tensor):
    """A named trainable tensor with Adam moment buffers and a step count."""

    __slots__ = ("name", "m", "v", "step")

    def __init__(self, name: str, data):
        super().__init__(data, requires_grad=True)
        self.name = name
        # np.zeros leaves the pages unwritten, so moments cost no memory until Adam's first step
        self.m = np.zeros(self.data.shape, self.data.dtype)
        self.v = np.zeros(self.data.shape, self.data.dtype)
        self.step = 0

    def __repr__(self):
        return f"Parameter({self.name!r}, shape={self.data.shape})"


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
        g = p.grad
        if g is None:
            raise MissingGradientError(f"parameter {p.name!r} has no gradient")
        p.step += 1
        dt = p.data.dtype.type
        b1, b2 = dt(_ADAM_B1), dt(_ADAM_B2)
        p.m = b1 * p.m + (dt(1) - b1) * g
        p.v = b2 * p.v + (dt(1) - b2) * (g * g)
        m_hat = p.m / (dt(1) - b1 ** p.step)
        v_hat = p.v / (dt(1) - b2 ** p.step)
        p.data = p.data - dt(lr) * m_hat / (np.sqrt(v_hat) + dt(_ADAM_EPS))
        p.grad = None


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
