"""The model variants and what each one fits.

Variant  stratum family                   outcome covariate slope
A        probit (two linked probits)      free per group
Astar    probit                           one slope shared by all groups
B        probit                           none
Cstar    mlogit (multinomial logit)       one shared slope
D        proportions (covariate-free)     none

This table is the one place that knows the variants; everything else asks
it for a variant's stratum family, slope mode or saved-parameter names.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ValidationError

PROBIT_PARAM_NAMES = (
    "never_probit_intercept",
    "never_probit_slope",
    "always_probit_intercept",
    "always_probit_slope",
)
MLOGIT_PARAM_NAMES = (
    "never_logit_intercept",
    "never_logit_slope",
    "always_logit_intercept",
    "always_logit_slope",
)
PROPORTION_PARAM_NAMES = ("prop_complier", "prop_never", "prop_always")
# (intercept, slope) per outcome group in the order (n, a, c0, c1), then the variance
OUTCOME_PARAM_NAMES = (
    "y_n_intercept",
    "y_n_slope",
    "y_a_intercept",
    "y_a_slope",
    "y_c0_intercept",
    "y_c0_slope",
    "y_c1_intercept",
    "y_c1_slope",
    "sigma2",
)


@dataclass(frozen=True)
class Variant:
    family: str  # stratum model: "probit", "mlogit" or "proportions"
    slope: str  # outcome covariate slope: "free", "shared" or "none"
    stratum_names: tuple[str, ...]  # saved stratum columns, in draw order

    @property
    def param_names(self) -> tuple[str, ...]:
        return self.stratum_names + OUTCOME_PARAM_NAMES


VARIANT_TABLE = {
    "A": Variant("probit", "free", PROBIT_PARAM_NAMES),
    "Astar": Variant("probit", "shared", PROBIT_PARAM_NAMES),
    "B": Variant("probit", "none", PROBIT_PARAM_NAMES),
    "Cstar": Variant("mlogit", "shared", MLOGIT_PARAM_NAMES),
    "D": Variant("proportions", "none", PROPORTION_PARAM_NAMES),
}
VARIANTS = tuple(VARIANT_TABLE)

_VARIANT_ALIASES = {"A*": "Astar", "C*": "Cstar"}


def normalize_variant(variant: str) -> str:
    v = _VARIANT_ALIASES.get(variant, variant)
    if v not in VARIANT_TABLE:
        raise ValidationError(
            f"unknown variant {variant!r}; expected one of {', '.join(VARIANTS)}"
        )
    return v


def default_param_names(variant: str) -> tuple[str, ...]:
    """Scalar parameter names, in saved-draw column order, for a variant."""
    return VARIANT_TABLE[normalize_variant(variant)].param_names
