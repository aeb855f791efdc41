"""The benchmark's workloads: INPUTS ExperimentSpecs each, built from the seed.

A run measures INPUTS inputs of the same shape, drawn from the seed, so that
its metrics do not rest on the chance properties of a single random graph.

`expected` holds, for the default seed, what each input must reproduce: the
sha256 of its canonical report, its exact simulated metrics, and the message
and bit totals the traced run counts. Only an intentional behaviour change may
update them, and the change must say which value moved and why. README.md in
this directory gives the reason each workload is in the benchmark.
"""

from __future__ import annotations

import hashlib

from bnicolor.experiment import ExperimentSpec, report_json, run_experiment

DEFAULT_SEED = 1
HELDOUT_SEED = 7
INPUTS = 12  # inputs per run; input k of seed s is generated with seed s * INPUTS + k

THM45 = {"preset": "thm45", "params": {"c": 2, "eps": "3/4"}}

# expected rows: sha256, rounds, colors_used, max_msg_bits, sim.messages, sim.bits
EXPECTED_KEYS = ("sha256", "rounds", "colors_used", "max_msg_bits", "sim.messages", "sim.bits")

WORKLOADS = {
    "flood": {
        "spec": {
            "generator": "random_gnd",
            "gen_params": {"n": 768, "d": 48},
            "algorithm": "randomized",
        },
        "expected": [
            ("58b37cb8fb35cb60be1e7cd855936ad475af23b34044a003de5eb511c9cc75e5", 14, 75, 12, 37495, 248280),
            ("f450f87b4db00aa9149856772b43dd50a0f89d3a391bdb37d19d54079d8f6f5c", 14, 77, 12, 37829, 250860),
            ("b658a6a868c5468869102f978638476054af76f2611f3335db7ec96fa737ba6b", 12, 76, 12, 37808, 250272),
            ("b3866dd1a5af0b89923f4295c83c3360941bc6b70035aa16871bea203abb2067", 16, 75, 12, 37932, 251700),
            ("04d1d836ec8596160bd25f6bd3fbbb093e3ac742a768af2eaacb8f96540e62e2", 16, 77, 12, 37945, 252036),
            ("a66e52d22d47b2240c1327cd37169115b56f0577a8dfdf74df484dcc4217adf7", 15, 74, 12, 37894, 250560),
            ("de7ba839fda478b38be724478c6cb80052e70da76529e7ef613d07eb10757ec9", 13, 74, 12, 38048, 252660),
            ("9d8cd5c162e3dee1d2f123abb7bd488c66134266650f5019d7776789d9802f8c", 14, 76, 12, 37792, 250752),
            ("607bc897d44e2d797897671e0124bfd5e653307089f3640da5aad6632846be67", 17, 74, 12, 37617, 249012),
            ("8fbd874e75235ac13f921e93da65cc3a3c414ba2886b08d4cb859ab898577fe3", 15, 78, 12, 38111, 253008),
            ("b286a66a171f7e0b17f8f2eace86e9796dcad4c375c55e1f0f7e3c0902e50794", 13, 75, 12, 37778, 250440),
            ("be552e14b210c9ff0727cef5a6f102a12f36ebd4e6a2040137b143e638c31569", 15, 74, 12, 38116, 253776),
        ],
    },
    "edge_short": {
        "spec": {
            "generator": "random_gnd",
            "gen_params": {"n": 30, "d": 16},
            "algorithm": "edge_direct",
            "preset": "custom",
            "params": {"b": 1, "p": 9, "lam": 16, "c": 2},
            "msg_mode": "short",
        },
        "expected": [
            ("fe281e50ff09e175f33c6c92b8546cc51382a5da9c4c736422287954d955bc99", 416, 26, 20, 6188, 103870),
            ("4d367730af4daf260c0dd19d2fee73daa227bc7262314605e464794f243f39c0", 414, 26, 20, 6076, 101990),
            ("9f6e85bb2ff217ba63cc9168430554918d01df040176df1cb6a7a264f77f9007", 434, 27, 20, 6272, 105280),
            ("1555bc493a33c2095fe1158abb92b365853e4ad87a75ccf840dc39d6a3617dc7", 391, 26, 20, 5880, 98700),
            ("e52854f07123b082d23ef9cf35488108bc5bff68df08be6477c592af63ce7fcd", 504, 25, 20, 6188, 103870),
            ("8312a70c748daf2b0bfdd8cef0f32d1ed044bb5541b979a25923bf4556a33ede", 398, 26, 20, 6216, 104340),
            ("ebee9c83f300b2e058f8de196cb52dc7ed38f6dd2602dff301fb93c62fd84a0b", 423, 26, 20, 6076, 101990),
            ("c948c2c2e6e052371e38aee5fa65ac0ad271036a15dcc53ce450573af4697fd2", 342, 25, 20, 6216, 104340),
            ("78f05d64968f2bfdc3bc5de7ee0994f65f07580b4fbcce70b510fb553bf01ab4", 391, 26, 20, 6160, 103400),
            ("786bdc81e6776bd27bc97dfdc89a1fe2f3287a4d4c3d149208995223495fccfe", 385, 27, 20, 6132, 102930),
            ("bb5f0a840d69dcd0f79c72b12e33acef50c4eb83a90256aaf5e834ea6f81fd96", 452, 25, 20, 6328, 106220),
            ("e9628c5cd2b02bfc4925b96e684b95838812897edfafc7e66bc1ccacb3ce3f7f", 387, 26, 20, 5936, 99640),
        ],
    },
    "line_legal": {
        "spec": {
            "generator": "line_of",
            "gen_params": {"inner": {"kind": "random_gnd", "params": {"n": 40, "d": 24}}},
            "algorithm": "legal",
            **THM45,
        },
        "expected": [
            ("c9f3623a49a6729f5a8e1e5f963909bb269746799756cfad29495dcdbc28b4ba", 68, 52, 13, 38549, 386799),
            ("b3203594848bd8388381fab793f7330b74c7b51b9583d6190f5249d210a18492", 72, 49, 13, 41413, 415567),
            ("71145e65c00ad9df748fc8a4572a2babf78daef3150c61838eda23e6074dd984", 75, 50, 13, 39974, 401110),
            ("d6d073e936f3d2530d2c80481219a3b01f6ce2c0e0c05c81bf913dfb5baa5117", 78, 51, 13, 38616, 387472),
            ("0b7d710c3f757c137b52bb8de1b0edfe3942f372ccdfb0c0063a00a6c23ffd58", 70, 50, 13, 41205, 413475),
            ("2111714c534de8cb6a5df96aa5efaf4387e5f13707bfec7b682c347a608523bf", 75, 51, 13, 40739, 408801),
            ("4fac66b0f797816d48d3d07dd247005616ff46066d15902d2f2a7d47665ab8f0", 65, 48, 13, 37916, 380436),
            ("6f7429ee1e889255eb2ceaa4bae1c050d84b45210b9e6b27feca3f0e679f0664", 67, 51, 13, 40751, 408913),
            ("7c536c2f90f32f83e169a7dc64acec30ac95cfb784591cc06326c91bfa90399c", 71, 52, 13, 40141, 402795),
            ("09311e832c4f1a3886b087319459b7921e0cbb71120f9aef9620695c94df7672", 75, 50, 13, 38033, 381615),
            ("72a29fd2a3f45292d8946c888b0e576b8b0d0819dbb63bd62355da1a9df8c971", 76, 51, 13, 39539, 396753),
            ("29a6b4fdcc0f329d4b2cfe0fe06e52e70a0fabdd76f36c13f82530c28866d953", 70, 49, 13, 37825, 379519),
        ],
    },
    "edge_line": {
        "spec": {
            "generator": "random_gnd",
            "gen_params": {"n": 30, "d": 24},
            "algorithm": "edge_line",
            **THM45,
        },
        "expected": [
            ("6b7950387eaf33c90cce7cc23ddd52af68dde6dc70988b76ce268329d9038c0e", 154, 50, 27, 31543, 316509),
            ("c1ec3331cb7f22f387572458c47cc66b24be7fed4795a13a619f69437ba66c33", 146, 49, 27, 31016, 311220),
            ("b3c20b2e37b3ad44cf0187538f746e906713642c9ea66b5783a590a2a0d3699e", 142, 49, 27, 30266, 303686),
            ("56c848d0d3e5d6ab82881044de61cec8eb390508790946dc7a5f0d0f7d357f8e", 134, 49, 27, 29760, 298604),
            ("d71c122e6873b90723ee16015a1f6b3b76010dcfc1b2e85d1c13bfc29771ff9c", 148, 53, 22, 30833, 309375),
            ("f6198baefa4ec50eee4e2eaa55f2ba0b329c51be5e1e46ce667acd4a904d7710", 152, 50, 27, 30871, 309765),
            ("23c25b26b17d9242a784d353242df63eb7c52add3242c10ac5e6f69b174503df", 150, 50, 27, 30796, 309008),
            ("a6717bf93847da8aa84f5b1311f98e60202b85e6510a841d78af6ea110796b0d", 148, 52, 27, 31350, 314570),
            ("5426e161fb0d0dbcc910ec10764202e1e509b14c075ac75d1de782e9f4a84db2", 154, 48, 27, 30332, 304356),
            ("583e09e475b58d03b460891310eddff89a0da62adcb2d20620b0e88a4a0db67d", 154, 51, 22, 31536, 316440),
            ("15061c820b082216bb697bad23a615562e0e6f6aed1515a3b48abbd56ec89298", 152, 51, 27, 31571, 316801),
            ("439bcd149aac7bf92efa9cfe57badd2ddbf979baf03dfef178a7121538f9fb4d", 126, 50, 27, 30677, 307811),
        ],
    },
}

EXACT_METRICS = ("rounds", "colors_used", "max_msg_bits")
TRACE_COUNTERS = ("sim.messages", "sim.bits")


def make_specs(workload: str, seed: int) -> list:
    """The run's inputs: INPUTS specs of the workload's shape."""
    spec = WORKLOADS[workload]["spec"]
    return [ExperimentSpec(seed=seed * INPUTS + k, **spec) for k in range(INPUTS)]


def expected(workload: str, seed: int) -> list:
    """Recorded values of each input for the default seed; empty for any other seed."""
    if seed != DEFAULT_SEED:
        return []
    return [dict(zip(EXPECTED_KEYS, row)) for row in WORKLOADS[workload]["expected"]]


def report_digest(spec: ExperimentSpec) -> tuple:
    """One operation: run the spec and hash its canonical report."""
    report = run_experiment(spec)
    return report, hashlib.sha256(report_json(report).encode()).hexdigest()
