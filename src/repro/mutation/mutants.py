"""AST-level mutant generation for small pure-Python programs.

The generator enumerates *mutation sites* in deterministic source order
(pre-order AST traversal) and produces one mutant per site — a complete
module source with exactly one operator, comparison, boolean-connective,
constant or negation rewrite applied.  The enumeration is a pure function
of the source text, so mutant identifiers (``m000``, ``m001``, …) are
stable across runs and machines; a ``max_mutants`` cap subsamples the full
enumeration deterministically under a seed.

Supported operators (one replacement per site keeps the campaign size
linear in program size):

========================  ===============================================
operator                  rewrite
========================  ===============================================
``flip-arith``            ``+ ↔ -``, ``* ↔ /``, ``// → %``, ``% → //``
``flip-compare``          ``< ↔ <=``, ``> ↔ >=``, ``== ↔ !=``
``flip-boolop``           ``and ↔ or``
``drop-not``              ``not x → x``
``drop-negate``           ``-x → x`` (numeric literals excluded)
``tweak-constant``        int ``n → n + 1``, float ``x → x + 1.0``,
                          ``True ↔ False``
========================  ===============================================

Mutations are never applied inside annotations or to comparisons
involving ``__name__`` (mutating an ``if __name__ == "__main__"`` guard
would execute script code at import time instead of testing anything).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Callable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import ModelError

__all__ = ["Mutant", "Mutation", "enumerate_mutations", "generate_mutants"]

#: bump when the enumeration rules change — part of every campaign
#: record's cache identity, so stored kill outcomes produced by an older
#: generator are never served for a differently-numbered mutant set
MUTATOR_VERSION = "1"

_ARITH_SWAPS = {
    ast.Add: ast.Sub,
    ast.Sub: ast.Add,
    ast.Mult: ast.Div,
    ast.Div: ast.Mult,
    ast.FloorDiv: ast.Mod,
    ast.Mod: ast.FloorDiv,
}

_COMPARE_SWAPS = {
    ast.Lt: ast.LtE,
    ast.LtE: ast.Lt,
    ast.Gt: ast.GtE,
    ast.GtE: ast.Gt,
    ast.Eq: ast.NotEq,
    ast.NotEq: ast.Eq,
}

_OP_SYMBOLS = {
    ast.Add: "+",
    ast.Sub: "-",
    ast.Mult: "*",
    ast.Div: "/",
    ast.FloorDiv: "//",
    ast.Mod: "%",
    ast.Lt: "<",
    ast.LtE: "<=",
    ast.Gt: ">",
    ast.GtE: ">=",
    ast.Eq: "==",
    ast.NotEq: "!=",
    ast.And: "and",
    ast.Or: "or",
}

# child fields never traversed: mutating type annotations changes no
# behaviour the test suite could observe
_SKIPPED_FIELDS = ("annotation", "returns")


@dataclass(frozen=True)
class Mutation:
    """One mutation site: what is rewritten, where, and how.

    ``mutant_id`` indexes the *full* enumeration of the source
    (``m000`` …), so it identifies the same rewrite even when a campaign
    subsamples.
    """

    mutant_id: str
    operator: str
    lineno: int
    description: str


@dataclass(frozen=True)
class Mutant:
    """A mutation together with the complete mutated module source."""

    mutation: Mutation
    source: str

    @property
    def mutant_id(self) -> str:
        return self.mutation.mutant_id


def _references_dunder_name(node: ast.AST) -> bool:
    return any(
        isinstance(child, ast.Name) and child.id == "__name__"
        for child in ast.walk(node)
    )


def _walk(
    node: ast.AST,
    parent: Optional[ast.AST] = None,
    field: Optional[str] = None,
    index: Optional[int] = None,
) -> Iterator[Tuple[ast.AST, Optional[ast.AST], Optional[str], Optional[int]]]:
    """Deterministic pre-order traversal with parent/field/index context."""
    yield node, parent, field, index
    for name, value in ast.iter_fields(node):
        if name in _SKIPPED_FIELDS:
            continue
        if isinstance(value, ast.AST):
            yield from _walk(value, node, name, None)
        elif isinstance(value, list):
            for position, item in enumerate(value):
                if isinstance(item, ast.AST):
                    yield from _walk(item, node, name, position)


# a site option: (operator name, description, apply(node, parent, field, index))
_Option = Tuple[str, str, Callable]


def _constant_description(value: object) -> Optional[Tuple[str, object]]:
    """(description, replacement) for a mutable constant, else None."""
    if isinstance(value, bool):
        return f"replace {value} with {not value}", (not value)
    if isinstance(value, int):
        return f"replace {value} with {value + 1}", value + 1
    if isinstance(value, float):
        return f"replace {value} with {value + 1.0}", value + 1.0
    return None


def _node_options(
    node: ast.AST,
    parent: Optional[ast.AST],
    field: Optional[str],
    index: Optional[int],
) -> List[_Option]:
    options: List[_Option] = []
    if isinstance(node, ast.BinOp):
        swap = _ARITH_SWAPS.get(type(node.op))
        if swap is not None:
            old, new = _OP_SYMBOLS[type(node.op)], _OP_SYMBOLS[swap]

            def apply_binop(target, *_context, _swap=swap):
                target.op = _swap()

            options.append(
                ("flip-arith", f"replace '{old}' with '{new}'", apply_binop)
            )
    elif isinstance(node, ast.Compare):
        if not _references_dunder_name(node):
            for position, op in enumerate(node.ops):
                swap = _COMPARE_SWAPS.get(type(op))
                if swap is None:
                    continue
                old, new = _OP_SYMBOLS[type(op)], _OP_SYMBOLS[swap]

                def apply_compare(target, *_context, _swap=swap, _pos=position):
                    target.ops[_pos] = _swap()

                options.append(
                    (
                        "flip-compare",
                        f"replace '{old}' with '{new}'",
                        apply_compare,
                    )
                )
    elif isinstance(node, ast.BoolOp):
        swap = ast.Or if isinstance(node.op, ast.And) else ast.And
        old, new = _OP_SYMBOLS[type(node.op)], _OP_SYMBOLS[swap]

        def apply_boolop(target, *_context, _swap=swap):
            target.op = _swap()

        options.append(
            ("flip-boolop", f"replace '{old}' with '{new}'", apply_boolop)
        )
    elif isinstance(node, ast.UnaryOp) and parent is not None and field is not None:

        def apply_drop_unary(target, target_parent, target_field, target_index):
            operand = target.operand
            if target_index is None:
                setattr(target_parent, target_field, operand)
            else:
                getattr(target_parent, target_field)[target_index] = operand

        if isinstance(node.op, ast.Not):
            options.append(("drop-not", "drop 'not'", apply_drop_unary))
        elif isinstance(node.op, ast.USub) and not isinstance(
            node.operand, ast.Constant
        ):
            options.append(
                ("drop-negate", "drop unary '-'", apply_drop_unary)
            )
    elif isinstance(node, ast.Constant):
        mutated = _constant_description(node.value)
        if mutated is not None:
            description, replacement = mutated

            def apply_constant(target, *_context, _value=replacement):
                target.value = _value

            options.append(("tweak-constant", description, apply_constant))
    return options


def _sites(tree: ast.AST) -> List[Tuple[ast.AST, Optional[ast.AST], Optional[str], Optional[int], _Option]]:
    """All mutation sites of a parsed module, in deterministic order."""
    out = []
    for node, parent, field, index in _walk(tree):
        for option in _node_options(node, parent, field, index):
            out.append((node, parent, field, index, option))
    return out


def enumerate_mutations(source: str) -> List[Mutation]:
    """Every mutation the source admits, in stable ``m###`` order."""
    tree = ast.parse(source)
    mutations = []
    for position, (node, _parent, _field, _index, option) in enumerate(
        _sites(tree)
    ):
        operator, description, _apply = option
        lineno = getattr(node, "lineno", 0)
        mutations.append(
            Mutation(
                mutant_id=f"m{position:03d}",
                operator=operator,
                lineno=lineno,
                description=f"line {lineno}: {description}",
            )
        )
    return mutations


def _apply_site(source: str, position: int) -> str:
    """The mutated module source for the site at ``position``.

    Re-parses and re-walks so that the applied site list aligns exactly
    with :func:`enumerate_mutations` (both are pure functions of the
    source); the rewrite happens on a fresh tree, in place.
    """
    tree = ast.parse(source)
    sites = _sites(tree)
    node, parent, field, index, (_operator, _description, apply) = sites[position]
    apply(node, parent, field, index)
    ast.fix_missing_locations(tree)
    return ast.unparse(tree) + "\n"


def generate_mutants(
    source: str,
    max_mutants: Optional[int] = None,
    seed: int = 0,
) -> List[Mutant]:
    """Generate mutants of ``source``, deterministically.

    Parameters
    ----------
    source:
        The module source to mutate (must parse).
    max_mutants:
        Cap on the number of mutants.  When the full enumeration is
        larger, a uniform subsample of exactly ``max_mutants`` sites is
        drawn with a generator seeded by ``seed`` — the same
        ``(source, max_mutants, seed)`` always selects the same sites.
    seed:
        Subsampling seed (unused when every site fits under the cap).
    """
    if max_mutants is not None and max_mutants < 1:
        raise ModelError(f"max_mutants must be >= 1, got {max_mutants}")
    mutations = enumerate_mutations(source)
    positions: Sequence[int] = range(len(mutations))
    if max_mutants is not None and len(mutations) > max_mutants:
        rng = np.random.default_rng(seed)
        chosen = rng.choice(len(mutations), size=max_mutants, replace=False)
        positions = sorted(int(p) for p in chosen)
    mutants = []
    for position in positions:
        mutated = _apply_site(source, position)
        # belt and braces: a rewrite that somehow breaks the grammar must
        # not reach the campaign runner as a phantom "killed" mutant
        compile(mutated, "<mutant>", "exec")
        mutants.append(Mutant(mutation=mutations[position], source=mutated))
    if not mutants:
        raise ModelError(
            "source admits no mutations (no arithmetic, comparison, "
            "boolean, negation or constant sites)"
        )
    return mutants
