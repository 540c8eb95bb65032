"""The one rule that keeps a subclass's scalar method from being ignored.

A block method (a whole ``(count, ...)`` draw) mirrors a scalar one for
speed.  It serves an object only if the object's type does not override
the scalar method it mirrors; a subclass that overrides the scalar method
alone gets the base class's per-row default, which loops the override.
"""


def honour_scalar(cls: type, base: type, scalar: str, *blocks: str) -> None:
    """Give ``cls`` ``base``'s per-row ``blocks`` when it overrides ``scalar``
    without them; call from ``base.__init_subclass__``."""
    if scalar in vars(cls):
        for block in blocks:
            if block not in vars(cls):
                setattr(cls, block, vars(base)[block])
