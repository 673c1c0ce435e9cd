"""Exception types shared across the package, and the integer rule they enforce."""


class ValidationError(ValueError):
    """Input violates a documented invariant (shape, symmetry, PSD, ordering)."""


class BudgetError(RuntimeError):
    """An exact computation would exceed the configured enumeration budget."""


class InfeasibleError(RuntimeError):
    """A constraint set is empty or a feasibility problem has no solution."""


class NumericalError(RuntimeError):
    """A numerical routine failed beyond the documented tolerances."""


def as_int(value) -> int:
    """``int(value)``, refusing a number that the conversion would change."""
    if isinstance(value, float) and not value.is_integer():
        raise ValidationError(f"{value!r} is not an integer")
    return int(value)
