"""Correctness checks that are not timed.

`check_golden` runs a small spec for each of the ten algorithms, both message
modes and every preset, and compares the sha256 of each canonical report with
the one recorded here. Only an intentional behaviour change may update a
hash, and the change must say which hash moved and why.

`check_heldout` runs every input of every benchmark workload twice on a seed
that is not the default one: both runs must verify as legal and give the same
report.
"""

from __future__ import annotations

from bnicolor.experiment import ALGORITHMS, ExperimentSpec
from bnicolor.params import PRESETS

from workloads import HELDOUT_SEED, WORKLOADS, make_specs, report_digest

SMALL_LINE = {"inner": {"kind": "random_gnd", "params": {"n": 18, "d": 5}}}
CUSTOM_EDGE = {"b": 1, "p": 9, "lam": 16, "c": 2}

# (name, spec fields, sha256 of the canonical report)
CORPUS = [
    ("linial", dict(generator="random_gnd", gen_params={"n": 30, "d": 5}, algorithm="linial", seed=2), "c9fe3797e7a233cdc001244efc64a2e19a86ea6b908e8d36a96c01fb9d1ea749"),
    ("defective_fast", dict(generator="line_of", gen_params=SMALL_LINE, algorithm="defective", params={"b": 1, "p": 4, "c": 2}), "31ef29f3907ed52baeb29379a46cfcd08067e5507bc7be60c35fb3c805ca788b"),
    ("defective_simple", dict(generator="line_of", gen_params=SMALL_LINE, algorithm="defective", params={"b": 1, "p": 4, "c": 2, "phi_mode": "simple"}), "404f9d5e79fa0297b1fa8952b3528e9a433eaee86b3cd95190ac8731175118f7"),
    ("legal_custom", dict(generator="line_of", gen_params=SMALL_LINE, algorithm="legal", preset="custom", params={"b": 1, "p": 9, "lam": 12, "c": 2}), "4c3b359d002e8e95e1f48b4ad356a175e00dbbc8a881a8598f21765391e14d45"),
    ("legal_thm45", dict(generator="random_gnd", gen_params={"n": 30, "d": 8}, algorithm="legal", preset="thm45", params={"c": 2, "eps": "3/4"}), "741572240c4199b11a4e802c40500ce1ac6ef3859a6cdfab0b12facf3bcb8f90"),
    # thm46 is feasible only from delta = 4096 (c = 1, t = 2)
    ("legal_thm46", dict(generator="bipartite", gen_params={"a": 1, "b": 4096}, algorithm="legal", preset="thm46", params={"c": 1}), "eea3319effbe252ac1a781a5c9b6ed63473f5d8f2d60a36e5fc8885d8705a70f"),
    ("legal_thm48_3", dict(generator="line_of", gen_params=SMALL_LINE, algorithm="legal", preset="thm48_3", params={"c": 2, "eps": "1/2"}), "75f7f109019cc095733c27cbc79f3bd7604e59b6f14863668eda03939c0d29eb"),
    ("legal_improved_s42", dict(generator="hypergraph_line", gen_params={"r": 3, "n": 30, "ground": 20}, algorithm="legal", preset="improved_s42", params={"c": 3, "phi_mode": "improved"}, seed=3), "db75aca5c75e8f825ec2ef2bda8213e3e69a795ad6f525dd0a49bf5b0638f0b6"),
    ("edge_direct_short", dict(generator="random_gnd", gen_params={"n": 24, "d": 6}, algorithm="edge_direct", preset="custom", params=CUSTOM_EDGE, msg_mode="short"), "853c526a087bc93837a870c6f7ae7c574299bede76d611c16c0c271cd9c378d3"),
    ("edge_direct_wide", dict(generator="random_gnd", gen_params={"n": 24, "d": 6}, algorithm="edge_direct", preset="custom", params=CUSTOM_EDGE), "db2044fd06eb90733e4045c12ab281612efb228768f058bbdeda5128772f25ee"),
    ("edge_direct_paced", dict(generator="random_gnd", gen_params={"n": 16, "d": 5}, algorithm="edge_direct", preset="custom", params={**CUSTOM_EDGE, "paced": True, "budget_factor": 2}, msg_mode="short"), "e09cea70e0b9f53fdd3bae34f3f4d1be3808bf607a841e116144113653870a3b"),
    ("edge_direct_thm45", dict(generator="random_gnd", gen_params={"n": 24, "d": 6}, algorithm="edge_direct", preset="thm45", params={"c": 2, "eps": "3/4"}, msg_mode="short"), "8bca54ca29b2ac900de13b4824840643a7f350effcfbcfc0afeae34a05893d49"),
    ("edge_line_thm45", dict(generator="random_gnd", gen_params={"n": 24, "d": 6}, algorithm="edge_line", preset="thm45", params={"c": 2, "eps": "3/4"}), "da32970f69eaa859ad72592305039799a3bdc7c3af85eb3269ddb23be7640852"),
    ("edge_line_custom", dict(generator="cycle", gen_params={"n": 12}, algorithm="edge_line", preset="custom", params={"b": 1, "p": 9, "lam": 12, "c": 2}), "226d65b2a0b30fcd6a22bf9df8de9086308676c9e02777755d6e27c2a1ebb5f5"),
    ("edge_2delta", dict(generator="random_gnd", gen_params={"n": 40, "d": 6}, algorithm="edge_2delta", seed=9), "158e613d26ebbecdcb2ba23c18982673baae42880ca994654dc3ee4efe16374f"),
    ("kuhn_edge", dict(generator="random_gnd", gen_params={"n": 40, "d": 8}, algorithm="kuhn_edge", params={"p_prime": 3}), "d30471034465352e3ced60685c565194ca906dc60289986c9a4ff4d3a7cd725b"),
    ("randomized_defective", dict(generator="random_gnd", gen_params={"n": 200, "d": 24}, algorithm="randomized_defective", seed=5), "7c277d08bba5eebaec9b703f2d9778c04cbf8b31997d339b0dba01ce9f0b9c53"),
    ("randomized", dict(generator="random_gnd", gen_params={"n": 200, "d": 24}, algorithm="randomized", seed=4), "d50be19884665506b0529822cb2f6c724f7caf64561c4428788fafae075f0098"),
    ("tradeoff", dict(generator="random_gnd", gen_params={"n": 80, "d": 16}, algorithm="tradeoff", params={"c": 2, "g_fn": "power:0.5", "eta": 0.25}), "b1d324762f6c0cdd09cf572baec0ee906fc77c4c560c13cc3b95581ebd6e16ec"),
    ("tradeoff_fallback", dict(generator="complete", gen_params={"n": 6}, algorithm="tradeoff", params={"c": 2}), "8b82ee918c2d53b73874a90927b1338a538c49b52c1fa65585eadbf844505032"),
]


def check_golden() -> int:
    """Exit status 0 when the corpus covers every algorithm, preset and
    message mode and every report matches its recorded hash."""
    specs = [(name, ExperimentSpec(**fields), want) for name, fields, want in CORPUS]
    missing = (
        (set(ALGORITHMS) - {s.algorithm for _, s, _ in specs})
        | (set(PRESETS) - {s.preset or "custom" for _, s, _ in specs})
        | ({"wide", "short"} - {s.msg_mode for _, s, _ in specs})
    )
    if missing:
        print(f"FAIL corpus does not cover {sorted(missing)}")
    bad = 0
    for name, spec, want in specs:
        try:
            report, got = report_digest(spec)
        except Exception as exc:  # a spec that raises is a failed check
            report, got = {"verification": {"violated": ["raised"]}}, f"raised {exc!r}"
        # defective algorithms are not legal; every report must meet its own claim
        ok = got == want and not report["verification"]["violated"]
        bad += not ok
        print(f"{'ok  ' if ok else 'FAIL'} {name:22s} {got}" + ("" if ok else f" (recorded {want or 'none'})"))
    print(f"golden corpus: {len(specs) - bad}/{len(specs)} reports match")
    return 1 if bad or missing else 0


def check_heldout() -> int:
    """Exit status 0 when every input of every workload verifies and repeats
    on HELDOUT_SEED."""
    bad = 0
    for workload in WORKLOADS:
        for spec in make_specs(workload, HELDOUT_SEED):
            (first, a), (second, b) = report_digest(spec), report_digest(spec)
            ok = a == b and first["verification"]["legal"] and second["verification"]["legal"]
            bad += not ok
            print(f"{'ok  ' if ok else 'FAIL'} {workload:12s} seed {spec.seed} {a} {b}")
    return 1 if bad else 0
