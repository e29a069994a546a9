"""Dense 2-D float64 tensors with reverse-mode differentiation on a tape.

Every gradient in the package is defined in this module and nowhere else.
Values are plain NumPy arrays.  A :class:`Tape` records each primitive
application; :meth:`Tape.backward` replays the recording in exact reverse
order and accumulates gradients so a value used twice receives the sum of
both path contributions.

The primitives are the ones the model's forward pass and loss record, plus
``sum_all``, which gradient probes use.  The elementwise binary ops take
operands of one shape; nothing broadcasts.

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


def _same_shape(a, b, opname):
    if a.values.shape != b.values.shape:
        raise ShapeError(f"{opname}: shapes differ ({a.shape}, {b.shape})")


# ---------------------------------------------------------------------------
# primitive set
# ---------------------------------------------------------------------------

def matmul(a, b):
    if a.values.shape[1] != b.values.shape[0]:
        raise ShapeError(f"matmul: inner dimensions differ ({a.shape} @ {b.shape})")
    av, bv = a.values, b.values

    def backward(g):
        # an untracked operand (an adjacency, a momentum-branch weight)
        # would discard its piece, so it is not computed
        return (g @ bv.T if a.requires_grad else None,
                av.T @ g if b.requires_grad else None)

    return _record(av @ bv, (a, b), backward)


def add(a, b):
    _same_shape(a, b, "add")

    def backward(g):
        return g, g

    return _record(a.values + b.values, (a, b), backward)


def multiply(a, b):
    _same_shape(a, b, "multiply")
    av, bv = a.values, b.values

    def backward(g):
        return g * bv, g * av

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
    """The tensors stacked top to bottom; one tensor is returned as it is."""
    tensors = list(tensors)
    if not tensors:
        raise ShapeError("concat_rows of an empty sequence")
    if len(tensors) == 1:
        return tensors[0]
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


def row_select(a, mask, surrogate=None, column=None):
    """Rows of ``a`` where the boolean ``mask`` is true (order preserved).

    With a straight-through ``surrogate`` (one row per row of ``a``: a
    column, or a matrix whose column ``column`` serves) the forward value
    is unchanged, as if each kept row were scaled by its hard mask value 1;
    backward pretends it was scaled by the surrogate, so surrogate entry
    (u, column) receives <g_u, a_u> for every kept row u and every other
    entry zero.
    """
    mask = np.asarray(mask, dtype=bool).reshape(-1)
    if mask.shape[0] != a.values.shape[0]:
        raise ShapeError(f"row_select: mask length {mask.shape[0]} "
                         f"!= row count {a.values.shape[0]}")
    if not mask.any():
        raise ShapeError("row_select: empty selection")
    if surrogate is not None:
        rows, cols = surrogate.values.shape
        if column is None and cols == 1:
            column = 0
        if rows != mask.shape[0] or column is None or not 0 <= column < cols:
            raise ShapeError("row_select: the surrogate must have one entry "
                             "per row of a, in one column or in the column "
                             "named by column")
    shape = a.values.shape
    kept = a.values[mask]

    def backward(g):
        full = np.zeros(shape)
        full[mask] = g
        if surrogate is None:
            return (full,)
        dots = np.zeros(surrogate.values.shape)
        dots[mask, column] = (g * kept).sum(axis=1)
        return full, dots

    inputs = (a,) if surrogate is None else (a, surrogate)
    return _record(kept, inputs, backward)


def scale(a, c):
    c = float(c)

    def backward(g):
        return (g * c,)

    return _record(a.values * c, (a,), backward)


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

def unit_rows(a):
    """Each row of ``a`` divided by (its Euclidean norm + COSINE_EPS).

    The epsilon guard keeps all-zero rows (a node whose ReLU encoding is all
    zero) well defined: they stay exactly 0, the norm term of their gradient
    is taken as 0 (subgradient at the origin), and a near-zero row's
    gradient stays bounded by 1/eps.
    """
    av = a.values
    norms = np.sqrt((av * av).sum(axis=1, keepdims=True))
    denom = norms + COSINE_EPS

    def backward(g):
        # d(a/(|a|+eps)): (g - a <a,g> / (|a| (|a|+eps))) / (|a|+eps)
        dots = (av * g).sum(axis=1, keepdims=True)
        coef = np.divide(dots, norms * denom, out=np.zeros_like(dots),
                         where=norms > 0.0)
        return ((g - av * coef) / denom,)

    return _record(av / denom, (a,), backward)


def block_matmul(blocks, a):
    """The block-diagonal matrix of the constant ``blocks`` times ``a``.

    ``blocks`` is a (G, n, k) stack and ``a`` holds G blocks of k rows:
    block g of the (G*n, cols) result is blocks[g] times rows g*k:(g+1)*k
    of ``a``.  One batched matmul forward, and one with the transposed
    stack backward; the blocks receive no gradient.  A stack of one block
    is the plain :func:`matmul` of that block and ``a``, recorded as one.
    """
    blocks = np.asarray(blocks, dtype=np.float64)
    av = a.values
    if blocks.ndim != 3 or blocks.shape[0] * blocks.shape[2] != av.shape[0]:
        raise ShapeError(f"block_matmul: blocks {blocks.shape} do not "
                         f"cover the {av.shape[0]} rows of a")
    count, n, k = blocks.shape
    if count == 1:
        # the block is wrapped as it is: blocks are not checked finite
        held = Tensor.__new__(Tensor)
        held.values, held.requires_grad, held.grad = blocks[0], False, None
        return matmul(held, a)
    cols = av.shape[1]

    def backward(g):
        return (np.matmul(blocks.transpose(0, 2, 1),
                          g.reshape(count, n, cols)).reshape(count * k, cols),)

    out = np.matmul(blocks, av.reshape(count, k, cols))
    return _record(out.reshape(count * n, cols), (a,), backward)


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
    if not 0.0 < temperature < np.inf:
        raise NumericsError("binary_concrete: temperature must be finite "
                            f"and > 0, got {temperature}")
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


def bernoulli_kl_sum(p, p_hat):
    """Per-column sums of KL(Bernoulli(p_hat) || Bernoulli(p[u, g])).

    Closed form per entry: p_hat*log(p_hat/p) + (1-p_hat)*log((1-p_hat)/(1-p)).
    Column g of p sums to row g of the (columns, 1) result, clamped at 0
    against rounding, and sums exactly as that column would alone.  Exactly
    zero when every entry equals p_hat.
    """
    pv = p.values
    if not (0.0 < p_hat < 1.0):
        raise NumericsError("bernoulli_kl_sum: p_hat must lie in (0, 1)")
    if ((pv <= 0.0) | (pv >= 1.0)).any():
        raise NumericsError("bernoulli_kl_sum: p must lie strictly in (0, 1)")
    terms = p_hat * np.log(p_hat / pv) + (1.0 - p_hat) * np.log((1.0 - p_hat) / (1.0 - pv))
    # each column is summed as one contiguous row
    totals = np.ascontiguousarray(terms.T).sum(axis=1, keepdims=True)

    def backward(g):
        return (g.T * (-p_hat / pv + (1.0 - p_hat) / (1.0 - pv)),)

    return _record(np.maximum(totals, 0.0), (p,), backward)


def as_offsets(offsets, total):
    """Segment offsets as an int64 array; None means one segment of ``total``.

    Segment j spans offsets[j]:offsets[j + 1].  The offsets must rise
    strictly from 0 to ``total``: every segment holds at least one row and
    every row lies in a segment.  Any other layout, or offsets that are not
    integers, raises ShapeError.
    """
    offsets = np.asarray((0, total) if offsets is None else offsets)
    if offsets.size and offsets.dtype.kind not in "iu":
        raise ShapeError(f"segment offsets {offsets.tolist()} must be "
                         "integers")
    offsets = offsets.astype(np.int64, copy=False)
    if (offsets.ndim != 1 or offsets.shape[0] < 2 or offsets[0] != 0
            or offsets[-1] != total or (offsets[1:] <= offsets[:-1]).any()):
        raise ShapeError(f"segment offsets {offsets.tolist()} leave an "
                         "empty side: they must rise strictly from 0 to "
                         f"{total}")
    return offsets


def segment_index(offsets):
    """Column layout of K segments: key j owns columns offsets[j]:offsets[j+1].

    Returns each column's segment id, its position within the segment, and
    the widest segment's width.
    """
    offsets = np.asarray(offsets, dtype=np.int64)
    widths = offsets[1:] - offsets[:-1]
    seg = np.repeat(np.arange(widths.shape[0]), widths)
    return seg, np.arange(offsets[-1]) - offsets[seg], int(widths.max())


def segment_matvec(a, w, offsets=None):
    """Each column segment of ``a`` times the leading entries of ``w``.

    ``a`` is (r, sum n_g): segment g fills columns offsets[g]:offsets[g+1]
    (one segment spanning every column when ``offsets`` is None).  ``w`` is
    a column with at least as many rows as the widest segment.  Returns the
    (r, G) tensor out[:, g] = a[:, segment g] @ w[:n_g].
    """
    av, wv = a.values, w.values
    offsets = as_offsets(offsets, av.shape[1])
    seg, pos, width = segment_index(offsets)
    if wv.shape[1] != 1:
        raise ShapeError(f"segment_matvec: weights {w.shape} are not a column")
    if width > wv.shape[0]:
        raise ShapeError(f"segment_matvec: a segment of {width} columns "
                         f"exceeds the {wv.shape[0]} weights")
    # column g of blocks holds w[:n_g] at segment g's rows, zeros elsewhere
    blocks = np.zeros((av.shape[1], offsets.shape[0] - 1))
    blocks[np.arange(av.shape[1]), seg] = wv[pos, 0]

    def backward(g):
        gw = None
        if w.requires_grad:
            # w's entry i gathers column i of every segment
            per_column = (av.T @ g)[np.arange(pos.shape[0]), seg]
            gw = np.bincount(pos, weights=per_column,
                             minlength=wv.shape[0])[:, None]
        return (g @ blocks.T if a.requires_grad else None), gw

    return _record(av @ blocks, (a, w), backward)


def plan_costs(m, plans, offsets=None):
    """Frobenius inner products <plan_{j,c}, M_j> for stacks of constant plans.

    ``m`` is (n, sum m_j): key j's cost matrix M_j fills columns
    offsets[j]:offsets[j+1] (one key spanning every column when ``offsets``
    is None).  ``plans`` is (C, n, sum m_j), key j's plans in key j's
    columns.  Plans are constant: gradients flow only through ``m`` (the
    envelope rule for transport plans).  Returns a K x C tensor.
    """
    mv = m.values
    offsets = as_offsets(offsets, mv.shape[1])
    plans = np.asarray(plans, dtype=np.float64)
    if plans.ndim != 3 or plans.shape[1:] != mv.shape:
        raise ShapeError(f"plan_costs: plans {plans.shape} do not stack over "
                         f"cost matrix {m.shape} in {len(offsets) - 1} keys")
    vals = np.add.reduceat(np.einsum("cnm,nm->cm", plans, mv), offsets[:-1],
                           axis=1).T
    widths = offsets[1:] - offsets[:-1]

    def backward(g):
        # key j's row of g, once per column of key j
        return (np.einsum("mc,cnm->nm", np.repeat(g, widths, axis=0), plans),)

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
