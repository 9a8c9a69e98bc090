#!/usr/bin/env python3
"""Engine-vs-oracle agreement sweep over random knowledge bases.

For each generated KB the cutting-plane engine's objective is compared
exactly against the maximum score of the exhaustive world enumeration, and
the closure of the selected statements is checked against the argmax worlds,
both in the value domain given by ``--domain`` (real by default).
"""
import argparse
import random
import sys
import time

from probel.engine import ReasonerConfig, brute_force_distribution, map_inference
from probel.grounding import saturate
from probel.randgen import random_kb
from probel.translate import phi, rule_templates


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--count", type=int, default=50)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--max-uncertain", type=int, default=10)
    parser.add_argument("--domain", choices=("real", "integer"), default="real",
                        help="value domain for datatype comparisons")
    args = parser.parse_args()
    config = ReasonerConfig(domain=args.domain)

    rng = random.Random(args.seed)
    started = time.perf_counter()
    engine_time = oracle_time = 0.0
    worlds_total = 0
    for i in range(args.count):
        kb = random_kb(rng, max_uncertain=args.max_uncertain)
        t0 = time.perf_counter()
        result = map_inference(kb, config)
        t1 = time.perf_counter()
        dist = brute_force_distribution(kb, config)
        t2 = time.perf_counter()
        engine_time += t1 - t0
        oracle_time += t2 - t1
        worlds_total += len(dist.worlds)

        best = max(w.score for w in dist.worlds)
        if result.objective != best:
            print(f"MISMATCH at KB {i}: engine {result.objective} vs oracle {best}")
            return 1
        templates = rule_templates(kb.signature)
        atoms = [phi(ws.statement) for ws in kb.deterministic + result.selected]
        closure, _ = saturate(templates, atoms, domain=args.domain)
        if closure not in {w.atoms for w in dist.worlds if w.score == best}:
            print(f"CLOSURE MISMATCH at KB {i}")
            return 1

    elapsed = time.perf_counter() - started
    print(
        f"{args.count} KBs agree exactly "
        f"({worlds_total} coherent worlds enumerated); "
        f"engine {engine_time:.2f}s, oracle {oracle_time:.2f}s, total {elapsed:.2f}s"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
