"""Per-layer metrics from cProfile data, aggregated by package module.

A layer is one module `cubematch/<layer>.py`.  Self time is cProfile's
`tottime` summed over the functions defined in that file; everything else
the profile saw (the interpreter, the stdlib, dataclass-generated methods,
`cubematch/errors.py` and `cubematch/__init__.py`) is `other`.  Call counts
are read from the profile's caller -> callee edges, so "calls made by X"
counts exactly the calls whose immediate caller is X.
"""

from __future__ import annotations

import pstats
from pathlib import Path

LAYERS = ("terms", "reduction", "typecheck", "problems", "encodings", "search", "syntax", "cli")


def layer_of(filename: str, package_dir: Path) -> str | None:
    path = Path(filename)
    if path.parent != package_dir or path.suffix != ".py":
        return None
    return path.stem if path.stem in LAYERS else None


class LayerProfile:
    """Profile data accumulated over the traced rounds of one run."""

    def __init__(self, package_dir: Path):
        self.package_dir = package_dir.resolve()
        self.stats: pstats.Stats | None = None

    def add(self, source) -> None:
        """Merge a cProfile.Profile or a file written by `python -m cProfile -o`."""
        if isinstance(source, Path):
            source = str(source)
        if self.stats is None:
            self.stats = pstats.Stats(source)
        else:
            self.stats.add(source)

    def metrics(
        self,
        rounds: int,
        solutions: int,
        parsed_bytes: int,
        import_ms: float,
        overhead_pct: float,
    ) -> dict[str, float]:
        """Every per-layer metric.  Times and counts are per round, and so are
        `solutions` (returned by the search) and `parsed_bytes` (input files
        read by CLI commands), which the benchmark tallies itself."""
        table = self.stats.stats if self.stats is not None else {}
        self_s = dict.fromkeys(LAYERS, 0.0)
        total_s = 0.0
        by_name: dict[tuple[str, str], tuple] = {}
        for (filename, _, func), (_, nc, tt, _, callers) in table.items():
            total_s += tt
            layer = layer_of(filename, self.package_dir)
            if layer is None:
                continue
            self_s[layer] += tt
            by_name[(layer, func)] = (nc, callers)

        def calls(layer: str, func: str, caller=None) -> int:
            """Calls to layer.func; `caller(layer, func)` filters the callers."""
            nc, callers = by_name.get((layer, func), (0, {}))
            if caller is None:
                return nc
            return sum(
                edge[0]
                for (fname, _, cfunc), edge in callers.items()
                if caller(layer_of(fname, self.package_dir), cfunc)
            )

        counts = {
            "terms.shift_calls": calls("terms", "shift", lambda lay, _: lay != "terms"),
            "terms.subst_calls": calls("terms", "subst", lambda lay, _: lay != "terms"),
            "reduction.normalize_calls": calls("reduction", "beta_eta_normalize"),
            "reduction.beta_steps": calls(
                "terms", "subst", lambda lay, f: (lay, f) == ("reduction", "_whnf")
            ),
            "reduction.eta_passes": calls(
                "reduction",
                "_eta_pass",
                lambda lay, f: (lay, f) == ("reduction", "_eta_fixpoint"),
            ),
            "typecheck.infer_calls": calls("typecheck", "infer_type"),
            "typecheck.equivalent_calls": calls(
                "reduction", "equivalent", lambda lay, _: lay == "typecheck"
            ),
            "problems.is_solution_calls": calls("problems", "is_solution"),
            "problems.subst_well_typed_calls": calls("problems", "subst_well_typed"),
            "encodings.is_solution_calls": calls(
                "problems", "is_solution", lambda lay, _: lay == "encodings"
            ),
            "search.enumerate_calls": calls("search", "enumerate_candidates"),
            "search.candidates_checked": calls(
                "typecheck", "check_type", lambda lay, _: lay == "search"
            ),
            "search.assignments_checked": calls(
                "problems", "is_solution", lambda lay, _: lay == "search"
            ),
        }
        out = {f"{layer}.self_ms": self_s[layer] * 1e3 / rounds for layer in LAYERS}
        out.update({name: n / rounds for name, n in counts.items()})
        checked, syntax_ms = out["search.assignments_checked"], out["syntax.self_ms"]
        out["search.yield_ratio"] = solutions / checked if checked else 0.0
        out["syntax.parse_bytes_per_ms"] = parsed_bytes / syntax_ms if syntax_ms else 0.0
        out["cli.import_ms"] = import_ms
        out["other.self_ms"] = (total_s - sum(self_s.values())) * 1e3 / rounds
        out["trace.overhead_pct"] = overhead_pct
        return out
