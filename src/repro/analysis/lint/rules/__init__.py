"""Rule registry: family token -> rule class."""

from .base import LintContext, Rule
from .det import DetRule
from .eqv import EqvRule
from .err import ErrRule

RULES: dict[str, type[Rule]] = {
    DetRule.FAMILY: DetRule,
    EqvRule.FAMILY: EqvRule,
    ErrRule.FAMILY: ErrRule,
}

__all__ = ["RULES", "LintContext", "Rule", "DetRule", "EqvRule", "ErrRule"]
