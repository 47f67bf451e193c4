"""What a request reads besides its flags: a file as UTF-8 text (an
--input file, or the --config file that fistab.parsing splices in), and
the JSON input of decompose, stability-scan, fit-charpoly and
fit-dimpoly, inline or from --input, within the work budget, and with no
key of an object given twice.  Only those requests import this module,
and `json` only to read JSON.
"""

from __future__ import annotations

import os
import sys
from functools import lru_cache

from ..errors import DomainError
from . import _BYTE_NS, _admit


def _read_text(path: str) -> str:
    with open(path, encoding="utf-8") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            raise DomainError(f"{path} is not UTF-8 text: {exc}") from None


def _unique_object(pairs: list) -> dict:
    table = dict(pairs)
    if len(table) < len(pairs):
        # a repeated key: the one check of keys, imported on this path alone
        from ..tables import unique_keys

        unique_keys([(k, k, v) for k, v in pairs], "JSON object")  # refuses the first repeat
    return table


@lru_cache(maxsize=None)
def _json_decoder():
    # json.loads(text, object_pairs_hook=...) builds a decoder per call
    import json

    return json.JSONDecoder(object_pairs_hook=_unique_object)


def load_json(args, inline_attr: str):
    # an empty --input (a config file's bare "input=") names no file
    inline = getattr(args, inline_attr, None)
    if (inline is None) == (not args.input):
        raise DomainError(f"give exactly one of --{inline_attr} or --input")
    size = len(inline) if inline is not None else os.stat(args.input).st_size
    if hasattr(args, "allow_large"):  # stability-scan has no override, so no budget
        _admit(args, lambda p: size * _BYTE_NS)
    text = inline if inline is not None else _read_text(args.input)
    import json

    try:
        if text.startswith("\ufeff"):
            json.loads(text)  # refuses a leading byte-order mark, which decode() reads as bad JSON
        return _json_decoder().decode(text)
    except json.JSONDecodeError as exc:
        raise DomainError(f"malformed JSON input: {exc}") from exc
    except RecursionError:
        raise DomainError("malformed JSON input: nested too deeply") from None
    except DomainError:
        raise
    except ValueError:
        # the interpreter's cap on int-from-str conversion (CPython 3.10.7+)
        # bounds parse time; it is kept, and a longer literal refused
        raise DomainError(
            f"JSON input has an integer of more than {sys.get_int_max_str_digits()} digits"
        ) from None
