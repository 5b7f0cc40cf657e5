"""Run one csck command with its layers timed from outside the program.

    PYTHONPATH=src python3 perfbench/traced.py scan --m 1 --n 2 --no-meta

The arguments are those of ``python -m csck``.  Before the command runs, the
public functions and methods of ``polynomials``, ``character``,
``localization``, ``cone`` and ``verification`` are replaced by timing
wrappers in every namespace that holds them; afterwards every replaced
attribute is put back.  Stdout is the command's own, byte for byte.  The
last line of stderr is one JSON object: the per-layer metrics of
``run.PER_LAYER`` plus ``main_s`` (CPU time inside ``csck.cli.main``) and
``restored`` (whether every wrapped attribute was put back).

A layer's ``self_s`` is the CPU time spent in its wrapped functions minus
the CPU time spent in wrapped functions of other layers that they called.  Its
``calls`` counts entries into the layer from another layer, so recursion
and calls between functions of one layer count once.  ``cli.self_s`` is what
no other layer claims: argument parsing, formatting, emission and any code
left unwrapped.
"""
from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter, defaultdict

from csck import character, cli, cone, localization, polynomials, verification
from run import CHECKS, PER_LAYER


def _bits(values) -> int:
    return max((max(abs(v.numerator).bit_length(), v.denominator.bit_length()) for v in values), default=0)


def _square_free_sizes(tracer, args, result):
    tracer.add("polynomials.square_free_part.removed_degree", args[0].degree - result.degree)


def _sturm_chain_sizes(tracer, args, chain):
    tracer.add("polynomials.sturm_chain.length", len(chain))
    tracer.maximum("polynomials.sturm_chain.coeff_bits_max", _bits(c for q in chain for c in q.coefficients()))


def _isolate_sizes(tracer, args, result):
    tracer.add("polynomials.sturm_isolate.intervals", len(result.intervals))


def _restrict_sizes(tracer, args, result):
    tracer.maximum("polynomials.restrict_to_line.degree_max", result.degree)
    tracer.maximum("polynomials.restrict_to_line.coeff_bits_max", _bits(result.coefficients()))


def _obstruction_sizes(tracer, args, result):
    # the cache is unbounded, so a pair not seen before is exactly a miss
    if result.dims not in tracer.built:
        tracer.built.add(result.dims)
        tracer.add("character.compute_obstruction.F_terms", len(result.F))
        tracer.maximum("character.compute_obstruction.F_coeff_bits_max", _bits(c for _, c in result.F.terms()))


def layer_table() -> list[tuple[str, list, object]]:
    """(layer, functions, size hook) for every traced layer."""
    P, C, L, K = polynomials, character, localization, cone
    table = [
        ("polynomials.square_free_part", [P.square_free_part], _square_free_sizes),
        ("polynomials.sturm_chain", [P.sturm_chain], _sturm_chain_sizes),
        ("polynomials.sturm_isolate", [P.sturm_isolate], _isolate_sizes),
        ("polynomials.restrict_to_line", [P.MultiPoly3.restrict_to_line], _restrict_sizes),
        ("polynomials.evaluate", [P.MultiPoly3.evaluate], None),
        ("character.compute_obstruction", [C.compute_obstruction], _obstruction_sizes),
        (
            "character.localized",
            [C.localized_component_poly, C.localized_sum_poly, C.localized_sum_poly_direct, C.assemble_from_localization],
            None,
        ),
        ("localization.cyclo_mul", [L.CycloElement.__mul__], None),
        ("localization.cyclo_inverse", [L.CycloElement.inverse], None),
        ("localization.congruence", [L.lambda_sum_check, L.t_sum_congruence_check, L.lambda_at_one], None),
        ("localization.series", [L.build_series_context, L.series_component_value, P.TruncSeries2.__mul__], None),
        ("cone.witness_search", [K._search_signed_point], None),
        ("cone.limits", [K.limit_l1, K.limit_l2], None),
        ("cone.sign_at", [K.sign_at], None),
        ("cone.in_kahler_triangle", [K.in_kahler_triangle], None),
    ]
    for check in verification.STANDARD_CHECKS + verification.DEEP_CHECKS:
        name = check.__name__.removeprefix("check_")
        table.append((f"verification.{name if name in CHECKS else 'other'}", [check], None))
    return table


def _owners() -> list:
    """Every csck module and every class defined in one: the namespaces a
    wrapped function may be reached through."""
    modules = [m for name, m in sys.modules.items() if name == "csck" or name.startswith("csck.")]
    classes = [
        v for m in modules for v in vars(m).values() if isinstance(v, type) and v.__module__.startswith("csck")
    ]
    return modules + list({id(c): c for c in classes}.values())


class Tracer:
    def __init__(self) -> None:
        self.stack: list[list] = []  # [layer, time spent in traced children]
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.total_s: defaultdict[str, float] = defaultdict(float)
        self.edges: Counter[tuple] = Counter()  # (caller layer, layer) -> entries
        self.sizes: Counter[str] = Counter()
        self.built: set = set()
        self._saved: list[tuple[object, str, object]] = []

    def add(self, key: str, value: int) -> None:
        self.sizes[key] += value

    def maximum(self, key: str, value: int) -> None:
        self.sizes[key] = max(self.sizes[key], value)

    def wrap(self, layer: str, fn, sizes=None):
        stack, clock = self.stack, time.process_time

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [layer, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                self.self_s[layer] += elapsed - frame[1]
                self.total_s[layer] += elapsed
                outer = parent[0] if parent else None
                if outer != layer:
                    self.edges[outer, layer] += 1
            if sizes is not None:
                mark = clock()
                sizes(self, args, result)
                elapsed += clock() - mark  # bookkeeping is charged to no layer
            if parent is not None:
                parent[1] += elapsed
            return result

        return traced

    def install(self, table) -> None:
        """Replace each traced function in every namespace and tuple that
        holds it."""
        replace = {}
        for layer, functions, sizes in table:
            for fn in functions:
                replace[id(fn)] = self.wrap(layer, fn, sizes)
        for owner in _owners():
            for name, value in list(vars(owner).items()):
                if id(value) in replace:
                    new = replace[id(value)]
                elif isinstance(value, tuple) and any(id(v) in replace for v in value):
                    new = tuple(replace.get(id(v), v) for v in value)
                else:
                    continue
                self._saved.append((owner, name, value))
                setattr(owner, name, new)

    def uninstall(self) -> bool:
        """Put back every replaced attribute; True when all are back."""
        for owner, name, value in reversed(self._saved):
            setattr(owner, name, value)
        return all(vars(owner)[name] is value for owner, name, value in self._saved)

    def report(self) -> dict:
        out = {}
        for metric in PER_LAYER:
            layer, _, stat = metric.rpartition(".")
            if stat == "self_s":
                out[metric] = self.self_s[layer]
            elif stat == "s":
                out[metric] = self.total_s[layer]
            elif stat == "calls":
                out[metric] = sum(n for (_, callee), n in self.edges.items() if callee == layer)
            else:
                out[metric] = self.sizes[metric]
        out["cone.witness_search.probes"] = self.edges["cone.witness_search", "cone.sign_at"]
        return out


def main(argv: list[str]) -> int:
    obstruction_cache = character.compute_obstruction.cache_info
    tracer = Tracer()
    tracer.install(layer_table())
    traced_main = tracer.wrap("cli", cli.main)
    try:
        code = traced_main(argv)
    finally:
        restored = tracer.uninstall()
    report = tracer.report()
    report["character.compute_obstruction.misses"] = obstruction_cache().misses
    report["main_s"] = tracer.total_s["cli"]
    report["restored"] = restored
    sys.stdout.flush()
    print(json.dumps(report), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
