"""`fistab bounds`: stability-bound arithmetic of the spectral sequence."""

from __future__ import annotations

from .. import bounds
from . import UsageError


def _reject_foreign_bounds_flags(args) -> None:
    # each mode reads only its own flags; any other would be silently ignored
    if args.fisharp:
        mode, own = "--fisharp", ()
    elif args.page is not None:
        mode, own = "--page", ("page", "p", "q")
    else:
        mode, own = "the abutment bound (no --page or --fisharp)", ("degenerates_at",)
    foreign = [
        "--" + flag.replace("_", "-")
        for flag in ("page", "p", "q", "degenerates_at")
        if flag not in own and getattr(args, flag) is not None
    ]
    if foreign:
        raise UsageError(f"{mode} does not use {', '.join(foreign)}")
    if args.page is not None and (args.p is None or args.q is None):
        raise UsageError("--page needs --p and --q")


def run(args):
    _reject_foreign_bounds_flags(args)
    params = bounds.BoundParams(args.alpha, args.beta)
    head = {"alpha": str(params.alpha), "beta": str(params.beta), "i": args.i}
    if args.fisharp:
        return {**head, "fisharp_degree": bounds.fisharp_degree(params, args.i)}
    if args.page is not None:
        st = bounds.page_stability(params, (args.p, args.q), args.page)
        head.update({"page": args.page, "p": args.p, "q": args.q})
    else:
        st = bounds.abutment_stability(
            params, args.i, degenerates_at=args.degenerates_at
        )
        if args.degenerates_at is not None:
            head["degenerates_at"] = args.degenerates_at
    return {
        **head,
        "injectivity": st.inj,
        "surjectivity": st.surj,
        "stability_degree": st.stability_degree,
    }
