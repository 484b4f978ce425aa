"""Dense linear maps between algebras, in canonical coordinates."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import Algebra, Element, _frozen
from .errors import ShapeError


@dataclass(frozen=True, eq=False)
class LinearMap:
    """A linear map between algebras, stored as a dense coordinate matrix.

    ``matrix`` has shape ``(target.dim, source.dim)`` and acts on canonical
    matrix-unit coordinates: ``coords(T(a)) = matrix @ coords(a)``.
    """

    source: Algebra
    target: Algebra
    matrix: np.ndarray

    def __post_init__(self):
        mat = _frozen(self.matrix)
        if mat.shape != (self.target.dim, self.source.dim):
            raise ShapeError(
                f"map matrix has shape {mat.shape}, expected "
                f"({self.target.dim}, {self.source.dim})"
            )
        object.__setattr__(self, "matrix", mat)

    def __call__(self, a: Element) -> Element:
        return self.target.from_coords(self.matrix @ self.source.to_coords(a))

    @staticmethod
    def identity(algebra: Algebra) -> "LinearMap":
        return LinearMap(algebra, algebra, np.eye(algebra.dim, dtype=np.complex128))
