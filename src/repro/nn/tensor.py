"""Reverse-mode automatic differentiation on numpy arrays.

This module is the foundation of the ML stack used by the EP-GNN, the LSTM
encoder and the attention decoder.  It implements a small, well-tested subset
of a deep-learning framework: a :class:`Tensor` wrapping a ``numpy.ndarray``,
a tape of parent links built during the forward pass, and a topological-order
backward pass accumulating gradients.

Design notes
------------
* Broadcasting is fully supported; :func:`_unbroadcast` reduces an upstream
  gradient back to a parent's shape.
* Gradients are accumulated (``+=``) so a tensor used in several places gets
  the correct total derivative.  ``Tensor.grad`` is an owned buffer updated
  in place, so a caller that needs a snapshot of it must copy it.
* Row sums into fresh zeros (the ``gather_rows`` backward,
  :func:`segment_sum`, the full encode's neighbour and cone sums) go through
  :func:`row_sums`, one ``np.bincount`` over flat element ids: bitwise
  equal to ``np.add.at`` into zeros, as fast as a flat 1-D ``np.add.at``
  and several times faster than the 2-D call.  Only ``__getitem__`` with
  an advanced index keeps ``np.add.at``.
* Only ``float64`` data participates in differentiation; integer index arrays
  are plain numpy arguments, never Tensors.
* No in-place mutation of ``data`` after a tensor has been consumed by an op;
  the layers in :mod:`repro.nn.layers` respect this convention.
"""

from __future__ import annotations

from typing import Callable, Iterable, List, Optional, Sequence, Set, Tuple, Union

import numpy as np

ArrayLike = Union["Tensor", np.ndarray, float, int, list, tuple]


def _unbroadcast(grad: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` down to ``shape``, inverting numpy broadcasting."""
    if grad.shape == shape:
        return grad
    # Sum over leading axes that were prepended by broadcasting.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum over axes that were 1 in the original shape but expanded.
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """A differentiable multi-dimensional array.

    Parameters
    ----------
    data:
        Anything convertible to a float64 numpy array.
    requires_grad:
        Whether gradients should be accumulated into ``self.grad`` during
        :meth:`backward`.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward_fn", "name")

    def __init__(self, data: ArrayLike, requires_grad: bool = False, name: str = ""):
        if isinstance(data, Tensor):
            data = data.data
        self.data: np.ndarray = np.asarray(data, dtype=np.float64)
        self.grad: Optional[np.ndarray] = None
        self.requires_grad: bool = bool(requires_grad)
        self._parents: Tuple[Tensor, ...] = ()
        self._backward_fn: Optional[Callable[[np.ndarray], None]] = None
        self.name = name

    # ------------------------------------------------------------------ #
    # basic protocol
    # ------------------------------------------------------------------ #
    @property
    def shape(self) -> Tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:
        grad_flag = ", requires_grad=True" if self.requires_grad else ""
        label = f", name={self.name!r}" if self.name else ""
        return f"Tensor(shape={self.data.shape}{grad_flag}{label})"

    def numpy(self) -> np.ndarray:
        """Return the underlying array (not a copy)."""
        return self.data

    def item(self) -> float:
        """Return the scalar value; raises if not a single element."""
        return float(self.data.item())

    def detach(self) -> "Tensor":
        """Return a new tensor sharing data but cut from the autograd tape."""
        return Tensor(self.data, requires_grad=False)

    def zero_grad(self) -> None:
        """Reset the accumulated gradient to ``None``."""
        self.grad = None

    # ------------------------------------------------------------------ #
    # graph construction helper
    # ------------------------------------------------------------------ #
    @staticmethod
    def _make(
        data: np.ndarray,
        parents: Sequence["Tensor"],
        backward_fn: Callable[[np.ndarray], None],
    ) -> "Tensor":
        out = Tensor(data)
        if any(p.requires_grad for p in parents):
            out.requires_grad = True
            out._parents = tuple(parents)
            out._backward_fn = backward_fn
        return out

    # ------------------------------------------------------------------ #
    # arithmetic
    # ------------------------------------------------------------------ #
    def __add__(self, other: ArrayLike) -> "Tensor":
        other = as_tensor(other)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(_unbroadcast(grad, self.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(grad, other.shape))

        return Tensor._make(self.data + other.data, (self, other), backward)

    def __radd__(self, other: ArrayLike) -> "Tensor":
        return self.__add__(other)

    def __neg__(self) -> "Tensor":
        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(-grad)

        return Tensor._make(-self.data, (self,), backward)

    def __sub__(self, other: ArrayLike) -> "Tensor":
        return self.__add__(as_tensor(other).__neg__())

    def __rsub__(self, other: ArrayLike) -> "Tensor":
        return as_tensor(other).__sub__(self)

    def __mul__(self, other: ArrayLike) -> "Tensor":
        other = as_tensor(other)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(_unbroadcast(grad * other.data, self.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(grad * self.data, other.shape))

        return Tensor._make(self.data * other.data, (self, other), backward)

    def __rmul__(self, other: ArrayLike) -> "Tensor":
        return self.__mul__(other)

    def __truediv__(self, other: ArrayLike) -> "Tensor":
        other = as_tensor(other)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(_unbroadcast(grad / other.data, self.shape))
            if other.requires_grad:
                other._accumulate(
                    _unbroadcast(-grad * self.data / (other.data**2), other.shape)
                )

        return Tensor._make(self.data / other.data, (self, other), backward)

    def __rtruediv__(self, other: ArrayLike) -> "Tensor":
        return as_tensor(other).__truediv__(self)

    def __pow__(self, exponent: float) -> "Tensor":
        if not isinstance(exponent, (int, float)):
            raise TypeError("Tensor ** only supports scalar exponents")

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * exponent * self.data ** (exponent - 1))

        return Tensor._make(self.data**exponent, (self,), backward)

    def __matmul__(self, other: ArrayLike) -> "Tensor":
        other = as_tensor(other)

        a_nd, b_nd = self.data.ndim, other.data.ndim
        if a_nd > 2 or b_nd > 2:
            raise ValueError("Tensor @ supports only 1-D and 2-D operands")

        def backward(grad: np.ndarray) -> None:
            a, b = self.data, other.data
            grad = np.asarray(grad)
            if self.requires_grad:
                if a_nd == 2 and b_nd == 2:
                    ga = grad @ b.T
                elif a_nd == 2 and b_nd == 1:  # (m,n)@(n,) -> (m,)
                    ga = np.outer(grad, b)
                elif a_nd == 1 and b_nd == 2:  # (n,)@(n,p) -> (p,)
                    ga = b @ grad
                else:  # (n,)@(n,) -> scalar
                    ga = grad * b
                self._accumulate_owned(ga.reshape(a.shape))
            if other.requires_grad:
                if a_nd == 2 and b_nd == 2:
                    gb = a.T @ grad
                elif a_nd == 2 and b_nd == 1:
                    gb = a.T @ grad
                elif a_nd == 1 and b_nd == 2:
                    gb = np.outer(a, grad)
                else:
                    gb = grad * a
                other._accumulate_owned(gb.reshape(b.shape))

        return Tensor._make(self.data @ other.data, (self, other), backward)

    # ------------------------------------------------------------------ #
    # elementwise nonlinearities
    # ------------------------------------------------------------------ #
    def exp(self) -> "Tensor":
        out_data = np.exp(self.data)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * out_data)

        return Tensor._make(out_data, (self,), backward)

    def log(self) -> "Tensor":
        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad / self.data)

        return Tensor._make(np.log(self.data), (self,), backward)

    def tanh(self) -> "Tensor":
        out_data = np.tanh(self.data)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * (1.0 - out_data**2))

        return Tensor._make(out_data, (self,), backward)

    def sigmoid(self) -> "Tensor":
        out_data = sigmoid_data(self.data)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * out_data * (1.0 - out_data))

        return Tensor._make(out_data, (self,), backward)

    def relu(self) -> "Tensor":
        mask = self.data > 0

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * mask)

        return Tensor._make(self.data * mask, (self,), backward)

    # ------------------------------------------------------------------ #
    # reductions
    # ------------------------------------------------------------------ #
    def sum(self, axis: Optional[Union[int, Tuple[int, ...]]] = None, keepdims: bool = False) -> "Tensor":
        out_data = self.data.sum(axis=axis, keepdims=keepdims)

        def backward(grad: np.ndarray) -> None:
            if not self.requires_grad:
                return
            g = np.asarray(grad)
            if axis is not None and not keepdims:
                axes = axis if isinstance(axis, tuple) else (axis,)
                for ax in sorted(a % self.data.ndim for a in axes):
                    g = np.expand_dims(g, ax)
            self._accumulate(np.broadcast_to(g, self.shape).copy())

        return Tensor._make(out_data, (self,), backward)

    def mean(self, axis: Optional[Union[int, Tuple[int, ...]]] = None, keepdims: bool = False) -> "Tensor":
        if axis is None:
            count = self.data.size
        else:
            axes = axis if isinstance(axis, tuple) else (axis,)
            count = int(np.prod([self.data.shape[a] for a in axes]))
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def max(self, axis: Optional[int] = None, keepdims: bool = False) -> "Tensor":
        out_data = self.data.max(axis=axis, keepdims=keepdims)

        def backward(grad: np.ndarray) -> None:
            if not self.requires_grad:
                return
            g = np.asarray(grad)
            if axis is None:
                mask = self.data == out_data
                self._accumulate(g * mask / mask.sum())
            else:
                expanded = out_data if keepdims else np.expand_dims(out_data, axis)
                mask = self.data == expanded
                gg = g if keepdims else np.expand_dims(g, axis)
                self._accumulate(gg * mask / mask.sum(axis=axis, keepdims=True))

        return Tensor._make(out_data, (self,), backward)

    # ------------------------------------------------------------------ #
    # shape manipulation
    # ------------------------------------------------------------------ #
    def reshape(self, *shape: int) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad.reshape(self.shape))

        return Tensor._make(self.data.reshape(shape), (self,), backward)

    def transpose(self) -> "Tensor":
        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad.T)

        return Tensor._make(self.data.T, (self,), backward)

    @property
    def T(self) -> "Tensor":
        return self.transpose()

    def __getitem__(self, index) -> "Tensor":
        # A basic index (ints and slices) never names an element twice, so
        # its backward is a plain indexed add into zeros, exactly.  Any
        # other numpy index may repeat elements and keeps ``np.add.at``.
        basic = _is_basic_index(index)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                full = np.zeros_like(self.data)
                if basic:
                    full[index] += grad
                else:
                    np.add.at(full, index, grad)
                self._accumulate_owned(full)

        return Tensor._make(self.data[index], (self,), backward)

    def gather_rows(self, indices: np.ndarray) -> "Tensor":
        """Select rows ``indices`` from a 2-D tensor (differentiable)."""
        indices = np.asarray(indices, dtype=np.int64)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate_owned(row_sums(indices, grad, self.shape[0]))

        return Tensor._make(self.data[indices], (self,), backward)

    # ------------------------------------------------------------------ #
    # backward pass
    # ------------------------------------------------------------------ #
    def _accumulate(self, grad: np.ndarray) -> None:
        # ``self.grad`` is always an owned copy, so later contributions add
        # into it in place.
        if self.grad is None:
            self.grad = np.array(grad, dtype=np.float64, copy=True)
        else:
            self.grad += grad

    def _accumulate_owned(self, grad: np.ndarray) -> None:
        """:meth:`_accumulate` for a freshly allocated float64 array that no
        one else references: the first contribution is kept without a copy."""
        if self.grad is None:
            self.grad = grad
        else:
            self.grad += grad

    def backward(self, grad: Optional[np.ndarray] = None) -> None:
        """Backpropagate from this tensor through the recorded tape.

        ``grad`` defaults to ones (so a scalar loss needs no argument).
        """
        if not self.requires_grad:
            raise RuntimeError("backward() called on a tensor that does not require grad")
        if grad is None:
            if self.data.size != 1:
                raise RuntimeError("backward() without an explicit gradient requires a scalar tensor")
            grad = np.ones_like(self.data)
        grad = np.asarray(grad, dtype=np.float64)
        self._accumulate(grad)
        for node in reversed(self._tape()):
            if node._backward_fn is not None and node.grad is not None:
                node._backward_fn(node.grad)

    def _tape(self) -> List["Tensor"]:
        """Every tensor this one was computed from, itself included, each
        after all of its parents."""
        order: List[Tensor] = []
        visited: Set[int] = set()
        stack: List[Tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                order.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in visited:
                    stack.append((parent, False))
        return order


def clear_grads(root: Tensor) -> None:
    """Reset ``grad`` to ``None`` on every tensor of ``root``'s tape, the
    leaves included.

    :meth:`Tensor.backward` leaves each interior node's gradient in place,
    so a second walk over a shared tape (from another root) would add to
    the first walk's; clear it in between.
    """
    for node in root._tape():
        node.grad = None


def sigmoid_data(x: np.ndarray) -> np.ndarray:
    """The logistic function of a plain array, its argument clipped at ±60
    so ``exp`` cannot overflow: the forward of :meth:`Tensor.sigmoid`."""
    return 1.0 / (1.0 + np.exp(-np.clip(x, -60.0, 60.0)))


def _is_basic_index(index) -> bool:
    """Whether ``index`` is an int, a slice or a tuple of them."""
    parts = index if isinstance(index, tuple) else (index,)
    return all(
        isinstance(part, (int, np.integer, slice)) and not isinstance(part, bool)
        for part in parts
    )


def as_tensor(value: ArrayLike) -> Tensor:
    """Coerce ``value`` to a :class:`Tensor` (no-op if already one)."""
    if isinstance(value, Tensor):
        return value
    return Tensor(value)


def concat(tensors: Iterable[Tensor], axis: int = 0) -> Tensor:
    """Differentiable concatenation along ``axis``."""
    tensors = [as_tensor(t) for t in tensors]
    if not tensors:
        raise ValueError("concat() requires at least one tensor")
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward(grad: np.ndarray) -> None:
        for t, start, stop in zip(tensors, offsets[:-1], offsets[1:]):
            if t.requires_grad:
                slicer = [slice(None)] * grad.ndim
                slicer[axis] = slice(start, stop)
                t._accumulate(grad[tuple(slicer)])

    return Tensor._make(np.concatenate([t.data for t in tensors], axis=axis), tensors, backward)


def stack(tensors: Iterable[Tensor], axis: int = 0) -> Tensor:
    """Differentiable stacking along a new ``axis``."""
    tensors = [as_tensor(t) for t in tensors]
    if not tensors:
        raise ValueError("stack() requires at least one tensor")

    def backward(grad: np.ndarray) -> None:
        for i, t in enumerate(tensors):
            if t.requires_grad:
                t._accumulate(np.take(grad, i, axis=axis))

    return Tensor._make(np.stack([t.data for t in tensors], axis=axis), tensors, backward)


def row_sums(index: np.ndarray, values: np.ndarray, num_rows: int) -> np.ndarray:
    """``out[r] = Σ_{i : index[i] = r} values[i]``, a fresh float64 array.

    ``out`` has ``num_rows`` rows shaped like ``values[0]``; rows no index
    names are zero.  One ``np.bincount`` over the flat element ids
    ``index·width + column``: bincount adds each bin's weights in input
    order starting from 0.0, which is exactly what ``np.add.at`` into
    zeros does, so every sum that is not NaN is bitwise equal to it,
    signed zeros and infinities included (a NaN sum is NaN in both, but
    which operand's sign bit it keeps depends on each loop's operand
    order).  ``np.add.reduceat`` is not equal: it does not sum a segment
    sequentially.  ``index`` must be non-negative.
    """
    index = np.asarray(index, dtype=np.int64)
    values = np.asarray(values, dtype=np.float64)
    shape = (num_rows,) + values.shape[1:]
    width = int(np.prod(shape[1:], dtype=np.int64))
    if index.size == 0 or width == 0:
        return np.zeros(shape)
    flat = index if width == 1 else (index[:, None] * width + np.arange(width)).ravel()
    sums = np.bincount(flat, weights=values.reshape(-1), minlength=num_rows * width)
    return sums.reshape(shape)


def segment_sum(rows: Tensor, segments: np.ndarray, num_segments: int) -> Tensor:
    """Sum ``rows`` grouped by ``segments`` (differentiable).

    ``segments[i]`` names the output row that input row ``i`` accumulates
    into; empty segments yield zero rows.  The summation order within a
    segment is the input order (see :func:`row_sums`).
    """
    rows = as_tensor(rows)
    segments = np.asarray(segments, dtype=np.int64)

    def backward(grad: np.ndarray) -> None:
        if rows.requires_grad:
            rows._accumulate_owned(grad[segments])

    return Tensor._make(row_sums(segments, rows.data, num_segments), (rows,), backward)


def where(condition: np.ndarray, a: ArrayLike, b: ArrayLike) -> Tensor:
    """Differentiable select: ``condition`` is a plain boolean array.

    The condition is **copied**: the backward closure replays it after the
    caller may have mutated the original in place (the selection env flips
    its ``valid`` mask between steps), and gradients must route by the
    condition as it was at forward time.
    """
    condition = np.array(condition, dtype=bool, copy=True)
    a, b = as_tensor(a), as_tensor(b)

    def backward(grad: np.ndarray) -> None:
        if a.requires_grad:
            a._accumulate(_unbroadcast(grad * condition, a.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(grad * ~condition, b.shape))

    return Tensor._make(np.where(condition, a.data, b.data), (a, b), backward)
