"""The one reader of exact numbers from text: the --alpha and --beta of
`fistab bounds` (`fraction`) and the values of JSON tables
(tables.parse_exact).  Only those paths import it.
"""

from __future__ import annotations

import sys


def read_exact(v):
    """v, a number or its text, as a Fraction, raising what Fraction
    raises; None where its numerator or denominator in lowest terms is
    past the int-to-str cap (0 for none), as it could not be printed.  An
    exponent over three caps is judged from its text, as Fraction would
    spend seconds expanding it: the mantissa has at most two caps of
    digits (int() refuses more), so the value is zero or past the cap."""
    from fractions import Fraction

    cap = sys.get_int_max_str_digits()
    if cap and isinstance(v, str) and ("e" in v or "E" in v):
        import re

        # the exponent of a decimal literal, as Fraction's grammar writes it
        exp = re.search(r"[eE]([-+]?\d+(?:_\d+)*)\s*\Z", v)
        if exp and abs(int(exp[1])) > 3 * cap:
            value = Fraction(v[: exp.start(1)] + "0")  # the mantissa alone
            return value if value == 0 else None
    value = Fraction(v)
    top = max(abs(value.numerator), value.denominator)
    # more than 3 * cap bits first: 8**cap < 10**cap
    return None if cap and top.bit_length() > 3 * cap and top >= 10**cap else value


def fraction(text: str):
    """text, the value of --alpha or --beta, as a Fraction, or ValueError
    with the usage error's reason; Fraction("1/0") is a bad value too."""
    try:
        value = read_exact(text)
        cap = sys.get_int_max_str_digits()
        note = f" (its numerator or denominator has more than {cap} digits)"
    except (ValueError, ZeroDivisionError):
        value, note = None, ""
    if value is None:
        raise ValueError(f"invalid Fraction value: {text!r}{note}")
    return value
