"""Dense 2-D float64 tensors with reverse-mode differentiation on a tape.

Every gradient in the package is defined in this module and nowhere else.
Values are plain NumPy arrays.  A :class:`Tape` records each primitive
application; :meth:`Tape.backward` replays the recording in exact reverse
order and accumulates gradients so a value used twice receives the sum of
both path contributions.

Running primitives outside any active tape skips recording entirely, which
is how evaluation mode avoids autodiff overhead.

Op outputs are not scanned for NaN or infinity when built; finiteness is
checked where values leave the tape, by :meth:`Tape.backward` and
:func:`check_finite`.
"""

from __future__ import annotations

import threading

import numpy as np

from .errors import NumericsError, ShapeError

COSINE_EPS = 1e-8

_state = threading.local()


def _active_tape():
    return getattr(_state, "tape", None)


class Tensor:
    """A 2-D float64 value, optionally tracked for differentiation.

    The constructor validates its values (2-D after promotion, all finite)
    and gives a tensor built with ``requires_grad`` a zeros ``grad``; scalars
    are represented as 1x1 and row/column vectors as 1xn / nx1.  Op outputs
    skip both: their values are taken as computed, and a tracked one gets
    its ``grad`` only when :meth:`Tape.backward` first reaches it.
    """

    __slots__ = ("values", "requires_grad", "grad")

    def __init__(self, values, requires_grad=False):
        arr = np.asarray(values, dtype=np.float64)
        if arr.ndim == 0:
            arr = arr.reshape(1, 1)
        elif arr.ndim == 1:
            arr = arr.reshape(1, -1)
        elif arr.ndim != 2:
            raise ShapeError(f"tensors are 2-D, got shape {arr.shape}")
        if not np.isfinite(arr).all():
            raise NumericsError("tensor values must be finite")
        self.values = arr
        self.requires_grad = bool(requires_grad)
        self.grad = np.zeros_like(arr) if requires_grad else None

    @property
    def shape(self):
        return self.values.shape

    def item(self):
        if self.values.size != 1:
            raise ShapeError(f"item() needs a 1x1 tensor, got {self.shape}")
        return float(self.values[0, 0])

    def zero_grad(self):
        if self.grad is None:
            self.grad = np.zeros_like(self.values)
        else:
            self.grad[...] = 0.0

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


def constant(values):
    """A tensor that never receives gradients."""
    return Tensor(values, requires_grad=False)


def detach(t):
    """Stop-gradient: same values, cut from the tape.

    Backward through a detached value contributes exactly zero to its source.
    """
    return Tensor(t.values, requires_grad=False)


class Tape:
    """Recording of primitive applications for one backward pass.

    A tape is single-threaded; distinct tapes on distinct threads share no
    mutable state (the active tape is thread-local).
    """

    def __init__(self):
        self.nodes = []  # (output, inputs, backward_fn)

    def __enter__(self):
        self._outer = _active_tape()
        _state.tape = self
        return self

    def __exit__(self, exc_type, exc, tb):
        _state.tape = self._outer
        return False

    def backward(self, root):
        """Accumulate d(root)/d(input) into ``grad`` of every tracked tensor.

        A non-finite root raises NumericsError naming the first recorded op
        whose output is non-finite.  A tensor without a ``grad`` (an op
        output backward has not reached yet) takes a C-ordered copy of its
        first piece, so no two tensors share a buffer; later pieces are
        added in place.
        """
        if root.values.shape != (1, 1):
            raise ShapeError("backward root must be a 1x1 scalar")
        if not np.isfinite(root.values).all():
            raise NumericsError("backward: the root is non-finite"
                                + _origin(self))
        if not root.requires_grad:
            # The root does not depend on any tracked tensor (e.g. a
            # constant closure); every gradient is identically zero.
            return
        if root.grad is None:
            root.grad = np.ones((1, 1))
        else:
            root.grad += 1.0
        for out, inputs, backward_fn in reversed(self.nodes):
            g = out.grad
            if g is None:
                continue
            for tensor, piece in zip(inputs, backward_fn(g)):
                if piece is not None and tensor.requires_grad:
                    if tensor.grad is None:
                        tensor.grad = np.array(piece, order="C")
                    else:
                        tensor.grad += piece


def _origin(tape):
    """' (first non-finite op output: <op>)' for ``tape``, or ''."""
    if tape is not None:
        for out, _, backward_fn in tape.nodes:
            if not np.isfinite(out.values).all():
                op = backward_fn.__qualname__.split(".")[0]
                return f" (first non-finite op output: {op})"
    return ""


def check_finite(what, *tensors):
    """Raise NumericsError unless every value of ``tensors`` is finite.

    Op outputs are not scanned when built, so callers check the values
    that leave the tape.  Under an active tape the message names the first
    recorded op whose output is non-finite.
    """
    for t in tensors:
        if not np.isfinite(t.values).all():
            raise NumericsError(f"{what} must be finite"
                                + _origin(_active_tape()))


def _record(values, inputs, backward_fn):
    """Wrap an op's 2-D float64 ``values`` as its output tensor.

    The one path for op outputs: no validation and no ``grad`` buffer.
    """
    tape = _active_tape()
    track = tape is not None and any(t.requires_grad for t in inputs)
    out = Tensor.__new__(Tensor)
    out.values, out.requires_grad, out.grad = values, track, None
    if track:
        tape.nodes.append((out, inputs, backward_fn))
    return out


def _unbroadcast(g, shape):
    """Sum ``g`` down to ``shape`` (row/column vector broadcasting only)."""
    if g.shape == shape:
        return g
    out = g
    if shape[0] == 1 and out.shape[0] != 1:
        out = out.sum(axis=0, keepdims=True)
    if shape[1] == 1 and out.shape[1] != 1:
        out = out.sum(axis=1, keepdims=True)
    return out


def _broadcast_values(a, b, opname):
    try:
        values = np.broadcast_shapes(a.values.shape, b.values.shape)
    except ValueError:
        raise ShapeError(f"{opname}: incompatible shapes {a.shape} and {b.shape}")
    if values != a.values.shape and values != b.values.shape:
        # e.g. (n,1) with (1,m): outer broadcasting is not supported.
        raise ShapeError(f"{opname}: broadcast of {a.shape} with {b.shape} "
                         "is limited to row/column vectors against a matrix")
    return values


# ---------------------------------------------------------------------------
# primitive set
# ---------------------------------------------------------------------------

def matmul(a, b):
    if a.values.shape[1] != b.values.shape[0]:
        raise ShapeError(f"matmul: inner dimensions differ ({a.shape} @ {b.shape})")
    av, bv = a.values, b.values

    def backward(g):
        return g @ bv.T, av.T @ g

    return _record(av @ bv, (a, b), backward)


def add(a, b):
    _broadcast_values(a, b, "add")
    ash, bsh = a.values.shape, b.values.shape

    def backward(g):
        return _unbroadcast(g, ash), _unbroadcast(g, bsh)

    return _record(a.values + b.values, (a, b), backward)


def add_n(tensors):
    """Sum of same-shape tensors."""
    tensors = list(tensors)
    if not tensors:
        raise ShapeError("add_n of an empty sequence")
    shape = tensors[0].values.shape
    for t in tensors[1:]:
        if t.values.shape != shape:
            raise ShapeError("add_n: all tensors must share one shape")
    total = tensors[0].values.copy()
    for t in tensors[1:]:
        total += t.values

    def backward(g):
        return tuple(g for _ in tensors)

    return _record(total, tuple(tensors), backward)


def multiply(a, b):
    _broadcast_values(a, b, "multiply")
    av, bv = a.values, b.values

    def backward(g):
        return _unbroadcast(g * bv, av.shape), _unbroadcast(g * av, bv.shape)

    return _record(av * bv, (a, b), backward)


def relu(a):
    av = a.values

    def backward(g):
        return (g * (av > 0.0),)

    return _record(np.maximum(av, 0.0), (a,), backward)


def _sigmoid_values(x):
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def sigmoid(a):
    s = _sigmoid_values(a.values)

    def backward(g):
        return (g * s * (1.0 - s),)

    return _record(s, (a,), backward)


def row_softmax(a):
    v = a.values
    shifted = v - v.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    s = e / e.sum(axis=1, keepdims=True)

    def backward(g):
        return ((g - (g * s).sum(axis=1, keepdims=True)) * s,)

    return _record(s, (a,), backward)


def sum_all(a):
    shape = a.values.shape

    def backward(g):
        return (np.full(shape, g[0, 0]),)

    return _record(np.full((1, 1), a.values.sum()), (a,), backward)


def mean_all(a):
    shape = a.values.shape
    size = a.values.size

    def backward(g):
        return (np.full(shape, g[0, 0] / size),)

    return _record(np.full((1, 1), a.values.mean()), (a,), backward)


def concat_rows(tensors):
    tensors = list(tensors)
    if not tensors:
        raise ShapeError("concat_rows of an empty sequence")
    cols = tensors[0].values.shape[1]
    for t in tensors[1:]:
        if t.values.shape[1] != cols:
            raise ShapeError("concat_rows: column counts differ")
    counts = [t.values.shape[0] for t in tensors]
    offsets = np.cumsum([0] + counts)

    def backward(g):
        return tuple(g[offsets[i]:offsets[i + 1]] for i in range(len(counts)))

    return _record(np.concatenate([t.values for t in tensors], axis=0),
                   tuple(tensors), backward)


def concat_cols(tensors):
    tensors = list(tensors)
    if not tensors:
        raise ShapeError("concat_cols of an empty sequence")
    rows = tensors[0].values.shape[0]
    for t in tensors[1:]:
        if t.values.shape[0] != rows:
            raise ShapeError("concat_cols: row counts differ")
    counts = [t.values.shape[1] for t in tensors]
    offsets = np.cumsum([0] + counts)

    def backward(g):
        return tuple(g[:, offsets[i]:offsets[i + 1]] for i in range(len(counts)))

    return _record(np.concatenate([t.values for t in tensors], axis=1),
                   tuple(tensors), backward)


def row_select(a, mask):
    """Rows of ``a`` where the boolean ``mask`` is true (order preserved)."""
    mask = np.asarray(mask, dtype=bool).reshape(-1)
    if mask.shape[0] != a.values.shape[0]:
        raise ShapeError(f"row_select: mask length {mask.shape[0]} "
                         f"!= row count {a.values.shape[0]}")
    if not mask.any():
        raise ShapeError("row_select: empty selection")
    shape = a.values.shape

    def backward(g):
        full = np.zeros(shape)
        full[mask] = g
        return (full,)

    return _record(a.values[mask], (a,), backward)


def scale(a, c):
    c = float(c)

    def backward(g):
        return (g * c,)

    return _record(a.values * c, (a,), backward)


def neg(a):
    return scale(a, -1.0)


def add_scalar(a, c):
    c = float(c)

    def backward(g):
        return (g,)

    return _record(a.values + c, (a,), backward)


def exp(a):
    out = np.exp(a.values)
    if not np.isfinite(out).all():
        raise NumericsError("exp overflow")

    def backward(g):
        return (g * out,)

    return _record(out, (a,), backward)


def log(a):
    av = a.values
    if (av <= 0.0).any():
        raise NumericsError("log of a non-positive value")

    def backward(g):
        return (g / av,)

    return _record(np.log(av), (a,), backward)


def transpose(a):
    def backward(g):
        return (np.ascontiguousarray(g.T),)

    return _record(np.ascontiguousarray(a.values.T), (a,), backward)


def clamp(a, lo=None, hi=None):
    av = a.values
    inside = np.ones(av.shape, dtype=bool)
    if lo is not None:
        inside &= av >= lo
    if hi is not None:
        inside &= av <= hi

    def backward(g):
        return (g * inside,)

    return _record(np.clip(av, lo, hi), (a,), backward)


# ---------------------------------------------------------------------------
# fused primitives for the model's hot path
# ---------------------------------------------------------------------------

def cosine_matrix(a, b, eps=COSINE_EPS):
    """Pairwise cosine similarity: out[u, v] = <a_u, b_v> / (|a_u||b_v| + eps).

    The epsilon guard keeps all-zero rows (which occur after aggressive
    sampling or zero padding) well defined: their similarities are exactly 0
    and the norm term of their gradient is taken as 0 (subgradient at the
    origin).
    """
    if a.values.shape[1] != b.values.shape[1]:
        raise ShapeError(f"cosine_matrix: feature dims differ ({a.shape}, {b.shape})")
    av, bv = a.values, b.values
    raw = av @ bv.T
    na = np.sqrt((av * av).sum(axis=1))
    nb = np.sqrt((bv * bv).sum(axis=1))
    denom = na[:, None] * nb[None, :] + eps
    out = raw / denom

    def backward(g):
        gd = g / denom
        s_over = gd * out  # g * S / D
        wa = s_over @ nb
        wa = np.divide(wa, na, out=np.zeros_like(wa), where=na > 0.0)
        ga = gd @ bv - av * wa[:, None]
        wb = s_over.T @ na
        wb = np.divide(wb, nb, out=np.zeros_like(wb), where=nb > 0.0)
        gb = gd.T @ av - bv * wb[:, None]
        return ga, gb

    return _record(out, (a, b), backward)


def pairwise_sqdist(a, b):
    """out[u, v] = squared Euclidean distance between a_u and b_v."""
    if a.values.shape[1] != b.values.shape[1]:
        raise ShapeError(f"pairwise_sqdist: feature dims differ ({a.shape}, {b.shape})")
    av, bv = a.values, b.values
    na2 = (av * av).sum(axis=1)
    nb2 = (bv * bv).sum(axis=1)
    raw = na2[:, None] + nb2[None, :] - 2.0 * (av @ bv.T)
    out = np.maximum(raw, 0.0)  # guard against negative rounding residue

    def backward(g):
        ga = 2.0 * (g.sum(axis=1, keepdims=True) * av - g @ bv)
        gb = 2.0 * (g.sum(axis=0)[:, None] * bv - g.T @ av)
        return ga, gb

    return _record(out, (a, b), backward)


def binary_concrete(p, noise, temperature):
    """Relaxed Bernoulli draw: sigmoid((logit(p) + logit(u)) / temperature).

    ``noise`` is a constant array of uniforms in (0, 1) with p's shape.
    The output is the smooth surrogate whose hard threshold gives the
    binary sample; its gradient in p is s(1-s) / (temperature * p(1-p)).
    """
    if temperature <= 0.0:
        raise NumericsError("binary_concrete: temperature must be positive")
    pv = p.values
    noise = np.asarray(noise, dtype=np.float64)
    if noise.shape != pv.shape:
        raise ShapeError("binary_concrete: noise shape must match p")
    if ((pv <= 0.0) | (pv >= 1.0)).any():
        raise NumericsError("binary_concrete: p must lie strictly in (0, 1)")
    if ((noise <= 0.0) | (noise >= 1.0)).any():
        raise NumericsError("binary_concrete: noise must lie strictly in (0, 1)")
    logit_p = np.log(pv) - np.log1p(-pv)
    logit_u = np.log(noise) - np.log1p(-noise)
    s = _sigmoid_values((logit_p + logit_u) / temperature)

    def backward(g):
        return (g * s * (1.0 - s) / (temperature * pv * (1.0 - pv)),)

    return _record(s, (p,), backward)


def straight_through_scale(x, z_tilde):
    """Row-wise straight-through multiplier for selected rows.

    Forward value is ``x`` unchanged (the hard mask of the surviving rows is
    all ones); backward pretends each row was multiplied by its relaxed
    surrogate, so d/d(z_tilde)[u] = <g_u, x_u> and gradients reach the
    sampling probabilities.
    """
    if z_tilde.values.shape != (x.values.shape[0], 1):
        raise ShapeError("straight_through_scale: z_tilde must be a column "
                         "with one entry per row of x")
    xv = x.values

    def backward(g):
        return g, (g * xv).sum(axis=1, keepdims=True)

    return _record(xv.copy(), (x, z_tilde), backward)


def bernoulli_kl_sum(p, p_hat):
    """Sum over entries of KL(Bernoulli(p_hat) || Bernoulli(p[u])).

    Closed form per entry: p_hat*log(p_hat/p) + (1-p_hat)*log((1-p_hat)/(1-p)).
    Exactly zero when every entry equals p_hat.
    """
    pv = p.values
    if not (0.0 < p_hat < 1.0):
        raise NumericsError("bernoulli_kl_sum: p_hat must lie in (0, 1)")
    if ((pv <= 0.0) | (pv >= 1.0)).any():
        raise NumericsError("bernoulli_kl_sum: p must lie strictly in (0, 1)")
    terms = p_hat * np.log(p_hat / pv) + (1.0 - p_hat) * np.log((1.0 - p_hat) / (1.0 - pv))
    total = max(float(terms.sum()), 0.0)

    def backward(g):
        return (g[0, 0] * (-p_hat / pv + (1.0 - p_hat) / (1.0 - pv)),)

    return _record(np.full((1, 1), total), (p,), backward)


def as_offsets(offsets, total):
    """Segment offsets as an int64 array; None means one segment of ``total``."""
    return np.asarray((0, total) if offsets is None else offsets,
                      dtype=np.int64)


def segment_index(offsets):
    """Column layout of K segments: key j owns columns offsets[j]:offsets[j+1].

    Returns each column's segment id, its position within the segment, and
    the widest segment's width.
    """
    offsets = np.asarray(offsets, dtype=np.int64)
    widths = np.diff(offsets)
    seg = np.repeat(np.arange(widths.shape[0]), widths)
    return seg, np.arange(offsets[-1]) - offsets[seg], int(widths.max())


def pad_segments(x, offsets, layout=None):
    """Split the last axis of ``x`` at ``offsets`` into a leading key axis.

    (..., sum m_j) becomes (K, ..., max m_j), each segment zero-padded on the
    right; a single segment is returned as a view.  ``layout`` is
    ``segment_index(offsets)`` when the caller already holds it.
    """
    if len(offsets) == 2:
        return x[None]
    seg, pos, width = segment_index(offsets) if layout is None else layout
    out = np.zeros((len(offsets) - 1,) + x.shape[:-1] + (width,))
    out[seg, ..., pos] = np.moveaxis(x, -1, 0)
    return out


def unpad_segments(x, offsets, layout=None):
    """Inverse of :func:`pad_segments`: (K, ..., max m_j) -> (..., sum m_j)."""
    if len(offsets) == 2:
        return x[0]
    seg, pos, _ = segment_index(offsets) if layout is None else layout
    return np.moveaxis(x[seg, ..., pos], 0, -1)


def plan_costs(m, plans, offsets=None):
    """Frobenius inner products <plan_{j,c}, M_j> for stacks of constant plans.

    ``m`` is (n, sum m_j): key j's cost matrix M_j fills columns
    offsets[j]:offsets[j+1] (one key spanning every column when ``offsets``
    is None).  ``plans`` has shape (K, C, n, max m_j), each key's plans
    zero-padded like :func:`pad_segments`; a single key's may be given as
    (C, n, m_j).  Plans are constant: gradients flow only through ``m`` (the
    envelope rule for transport plans).  Returns a K x C tensor.
    """
    mv = m.values
    offsets = as_offsets(offsets, mv.shape[1])
    layout = segment_index(offsets)  # shared by the pad and backward's unpad
    padded = pad_segments(mv, offsets, layout)
    plans = np.asarray(plans, dtype=np.float64)
    if plans.ndim == 3:
        plans = plans[None]
    if (plans.ndim != 4 or plans.shape[0] != padded.shape[0]
            or plans.shape[2:] != padded.shape[1:]):
        raise ShapeError(f"plan_costs: plans {plans.shape} do not stack over "
                         f"cost matrix {m.shape} in {len(offsets) - 1} keys")
    k, c = plans.shape[:2]
    flat = plans.reshape(k, c, -1)
    vals = (flat @ padded.reshape(k, -1, 1))[:, :, 0]
    shape = padded.shape

    def backward(g):
        return (unpad_segments((g[:, None, :] @ flat).reshape(shape),
                               offsets, layout),)

    return _record(vals, (m,), backward)


# ---------------------------------------------------------------------------
# gradient checking
# ---------------------------------------------------------------------------

def grad_check(closure, parameters, epsilon=1e-5):
    """Max relative error between tape gradients and central differences.

    ``closure`` takes no arguments, reads the current parameter values, and
    returns a 1x1 tensor.  It must be deterministic; non-determinism is
    detected by the finite-difference oracle and raised as OracleError.
    """
    from .oracles import finite_difference_gradient

    for p in parameters:
        p.zero_grad()
    with Tape() as tape:
        out = closure()
        tape.backward(out)
    analytic = [p.grad.copy() for p in parameters]

    numeric = finite_difference_gradient(lambda: closure().item(),
                                         parameters, epsilon)

    worst = 0.0
    for a, n in zip(analytic, numeric):
        denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), 1e-6)
        worst = max(worst, float((np.abs(a - n) / denom).max()))
    return worst
