"""Golden traces: small seeded runs pinned bit for bit.

Every case runs one seeded search on a built-in problem and compares
its whole observable trajectory with recorded values: the evaluation
count, what ended the run, the best value (as ``float.hex``), the
improvement history and, for two-thread runs, the stage trace and the
collision log. A change that moves any of these changes the search,
even when the final quality looks the same, so refactors and speed-ups
must leave this file passing unchanged.

Stage traces are recorded as one two-letter code per stage (thread A,
thread B): ``c`` continue, ``i`` intensify, ``d`` diversify, ``r``
reduce step.
"""
import numpy as np
import pytest

from tabukit.benchmarks import make_bump, make_schwefel10
from tabukit.control import SearchConfig, run_single
from tabukit.core import normalize
from tabukit.hydraulic import make_circuit
from tabukit.multithread import MultiConfig, run_multi

BUILDERS = {
    "schwefel10": make_schwefel10,
    "bump20": lambda: make_bump(20),
    "bump50": lambda: make_bump(50),
    "circuit": make_circuit,
}

STAGE_CODES = {"continue": "c", "intensify": "i", "diversify": "d", "reduce_step": "r"}

#: id -> (problem, method, seed, SearchConfig overrides, start).
#: ``start`` is "fixed" (raw all-5.0, thread A only for multi), "same"
#: (both threads at the centre of the box) or None (seeded random).
CASES = {
    "schwefel10-single": ("schwefel10", "single", 0, {"step_min": 0.01}, None),
    "schwefel10-multi": ("schwefel10", "multi", 1, {"max_evals": 3000}, None),
    "bump20-single": ("bump20", "single", 2, {"max_evals": 2000}, "fixed"),
    "bump20-multi": ("bump20", "multi", 3, {"max_evals": 4000}, None),
    "bump50-single": ("bump50", "single", 4, {"max_evals": 1500}, None),
    "bump50-multi": ("bump50", "multi", 5, {"max_evals": 2500}, "fixed"),
    "circuit-single": ("circuit", "single", 6, {}, None),
    "circuit-multi": ("circuit", "multi", 7, {"step_min": 0.001}, "same"),
}


def run_case(case_id):
    problem, method, seed, overrides, start = CASES[case_id]
    objective = BUILDERS[problem]()
    config = SearchConfig(seed=seed, **overrides)
    dim = objective.space.dimension
    if start == "fixed":
        x0 = normalize(objective.space, np.full(dim, 5.0))
    elif start == "same":
        x0 = np.full(dim, 0.5)
    else:
        x0 = None
    if method == "single":
        return run_single(objective, config, start=x0)
    other = x0 if start == "same" else None
    return run_multi(objective, MultiConfig(base=config, start_a=x0, start_b=other))


def trace(result):
    """The pinned view of a run result."""
    out = {
        "evals": result.evals,
        "terminated_by": result.terminated_by,
        "best": float(result.best.value).hex(),
        "history": [(e, float(v).hex()) for e, v in result.history],
    }
    if hasattr(result, "stages"):
        out["stages"] = " ".join(STAGE_CODES[a] + STAGE_CODES[b] for a, b in result.stages)
        out["collisions"] = [(e, float(d).hex()) for e, d in result.collisions.events]
    return out


@pytest.mark.parametrize("case_id", sorted(CASES))
def test_golden_trace(case_id):
    got = trace(run_case(case_id))
    want = PINS[case_id]
    for key in want:
        assert got[key] == want[key], f"{case_id}: {key} moved"
    assert set(got) == set(want)


def test_pins_cover_both_endings():
    endings = {pin["terminated_by"] for pin in PINS.values()}
    assert endings == {"eval_budget", "step_floor"}


PINS = {'schwefel10-single': {'evals': 1765,
                       'terminated_by': 'step_floor',
                       'best': '-0x1.5e05302f6473fp+11',
                       'history': [(1, '-0x1.947e4ffb86470p+6'),
                                   (22, '-0x1.8f50763192a74p+9'),
                                   (41, '-0x1.325e1ba5355c1p+10'),
                                   (61, '-0x1.837c7bf3ebfc8p+10'),
                                   (80, '-0x1.ca9a868f2b47bp+10'),
                                   (98, '-0x1.f821801b8fdd2p+10'),
                                   (117, '-0x1.123c9bc31bcf8p+11'),
                                   (154, '-0x1.1a19019fd0560p+11'),
                                   (246, '-0x1.2100c1ced2148p+11'),
                                   (373, '-0x1.29d15a51c45c4p+11'),
                                   (674, '-0x1.3935b7f171367p+11'),
                                   (693, '-0x1.3d62436b5a8bfp+11'),
                                   (711, '-0x1.3ec01fe66d8a1p+11'),
                                   (818, '-0x1.42c0510f978fap+11'),
                                   (907, '-0x1.5354e302ee426p+11'),
                                   (1206, '-0x1.5475393fec85fp+11'),
                                   (1297, '-0x1.5685a41c8e32ap+11'),
                                   (1388, '-0x1.5bb482034989dp+11'),
                                   (1490, '-0x1.5c78d7921fbe9p+11'),
                                   (1506, '-0x1.5cc0def90ae52p+11'),
                                   (1589, '-0x1.5e05302f6473fp+11')]},
 'schwefel10-multi': {'evals': 3007,
                      'terminated_by': 'eval_budget',
                      'best': '-0x1.7e895feffbc6bp+11',
                      'history': [(1, '0x1.cecbad3715d58p+8'),
                                  (2, '-0x1.d22fbe6fdf2cep+7'),
                                  (23, '-0x1.d642ffe3e2601p+7'),
                                  (44, '-0x1.cac5ea7f3a509p+9'),
                                  (84, '-0x1.2f8768961bfa0p+10'),
                                  (104, '-0x1.557ebcda52af4p+10'),
                                  (124, '-0x1.6ff42e4cb290cp+10'),
                                  (144, '-0x1.b29da12c821e7p+10'),
                                  (184, '-0x1.cb7dd55e91324p+10'),
                                  (224, '-0x1.e40723149059ap+10'),
                                  (264, '-0x1.facaa0bd35fe0p+10'),
                                  (423, '-0x1.fc1fe453a026cp+10'),
                                  (465, '-0x1.031fe3d799bc4p+11'),
                                  (645, '-0x1.23a23050941edp+11'),
                                  (687, '-0x1.29644dacb78ccp+11'),
                                  (1014, '-0x1.2ce974ccc410cp+11'),
                                  (1195, '-0x1.3bc9297221097p+11'),
                                  (1256, '-0x1.43c255b96771ep+11'),
                                  (1296, '-0x1.50314f802ca3ep+11'),
                                  (1663, '-0x1.50c73d4087efep+11'),
                                  (1984, '-0x1.5df6a26fac64fp+11'),
                                  (2107, '-0x1.6ba43a0afb82fp+11'),
                                  (2518, '-0x1.710d7c38153f6p+11'),
                                  (2599, '-0x1.7e895feffbc6bp+11')],
                      'stages': 'cc cc cc cc cc cc cc cc cc cc ci cc cc cc cc cd ic cc '
                                'cc cc cc ci cc cc cc cc ic cc cc ci cc cc cc cc ic cc '
                                'ci cc cc cc cc cc cc cc cc ci cc cc cc cc ic cc cc cc '
                                'cc cc ci cc ic cc cc cd cc dc cc cc cc cc rc ci cc cc '
                                'cc',
                      'collisions': []},
 'bump20-single': {'evals': 2017,
                   'terminated_by': 'eval_budget',
                   'best': '-0x1.79c429c3e0e07p-2',
                   'history': [(1, '-0x1.d47c41fd698e6p-10'),
                               (42, '-0x1.b78dfd98a8716p-7'),
                               (82, '-0x1.997321b643a26p-6'),
                               (122, '-0x1.2adbb0bc23cefp-5'),
                               (162, '-0x1.88024897a1ec5p-5'),
                               (202, '-0x1.e3e99569b1000p-5'),
                               (242, '-0x1.1f29450920d57p-4'),
                               (282, '-0x1.4b81c4f9d13f8p-4'),
                               (322, '-0x1.76e47beef7e90p-4'),
                               (362, '-0x1.a13acbdf368bdp-4'),
                               (402, '-0x1.ca7161dd27bafp-4'),
                               (442, '-0x1.f2783ba2c859fp-4'),
                               (482, '-0x1.0ca14d133459bp-3'),
                               (522, '-0x1.1f6371e538e95p-3'),
                               (562, '-0x1.317f3c62b7b87p-3'),
                               (602, '-0x1.42f2bcac58c00p-3'),
                               (642, '-0x1.53bd2ce51b75fp-3'),
                               (682, '-0x1.63ddc6fc6038fp-3'),
                               (722, '-0x1.7347ed6911a3dp-3'),
                               (762, '-0x1.815ed52585f32p-3'),
                               (802, '-0x1.872116e057c03p-3'),
                               (883, '-0x1.97357090b33cfp-3'),
                               (923, '-0x1.9827d50d41c6bp-3'),
                               (964, '-0x1.a9e8362d8b100p-3'),
                               (1004, '-0x1.ab003c7c4ee02p-3'),
                               (1045, '-0x1.bcf114fcbf4fbp-3'),
                               (1085, '-0x1.bed23869fedb1p-3'),
                               (1126, '-0x1.d127dc99e2e62p-3'),
                               (1166, '-0x1.d3e4992549ca0p-3'),
                               (1207, '-0x1.e69a0ccaa0de3p-3'),
                               (1247, '-0x1.ea445d491f737p-3'),
                               (1288, '-0x1.fd51a49b2ff08p-3'),
                               (1328, '-0x1.00fcf9392475cp-2'),
                               (1369, '-0x1.0aa98f1383bcfp-2'),
                               (1409, '-0x1.0d8360a0b8e00p-2'),
                               (1450, '-0x1.174d5df17ef17p-2'),
                               (1490, '-0x1.1ab0f881eb931p-2'),
                               (1531, '-0x1.248c832b12d52p-2'),
                               (1571, '-0x1.287a237fbeaccp-2'),
                               (1612, '-0x1.32573266fbf44p-2'),
                               (1652, '-0x1.36c98dec62f40p-2'),
                               (1693, '-0x1.4092ec690e52bp-2'),
                               (1733, '-0x1.457d483996821p-2'),
                               (1774, '-0x1.4f178e68f9f0ap-2'),
                               (1814, '-0x1.5463beb630e23p-2'),
                               (1855, '-0x1.5dac622faea19p-2'),
                               (1895, '-0x1.6339097804afep-2'),
                               (1936, '-0x1.6c05c10002682p-2'),
                               (1976, '-0x1.71a55c930bcbap-2'),
                               (2017, '-0x1.79c429c3e0e07p-2')]},
 'bump20-multi': {'evals': 4036,
                  'terminated_by': 'eval_budget',
                  'best': '-0x1.03a171ed34d6ap-1',
                  'history': [(1, '-0x1.c9dc0f373e716p-4'),
                              (43, '-0x1.011e3d17f7feep-3'),
                              (124, '-0x1.1a1c5b1146525p-3'),
                              (204, '-0x1.32510d79228b0p-3'),
                              (284, '-0x1.49aaf3ee3720fp-3'),
                              (364, '-0x1.5fcf0fc98cc26p-3'),
                              (444, '-0x1.72aae81ffbb69p-3'),
                              (524, '-0x1.9363858f3c528p-3'),
                              (605, '-0x1.a364aa801e990p-3'),
                              (685, '-0x1.b202b2654da5ep-3'),
                              (765, '-0x1.bf24dc8ad7c2ep-3'),
                              (846, '-0x1.cb4c89eb7daadp-3'),
                              (926, '-0x1.d5775ba67746cp-3'),
                              (1007, '-0x1.dcb4994658f67p-3'),
                              (1087, '-0x1.e2735273139edp-3'),
                              (1169, '-0x1.f9bb89b4ba82bp-3'),
                              (1249, '-0x1.faaf4f45f28ecp-3'),
                              (1331, '-0x1.09f29fe8d3fe0p-2'),
                              (1493, '-0x1.13d0f641f85ddp-2'),
                              (1734, '-0x1.187c6d3fe3245p-2'),
                              (1815, '-0x1.1a144fc5a98dap-2'),
                              (1896, '-0x1.1b9560f84dc35p-2'),
                              (1978, '-0x1.2ddab03ac98e6p-2'),
                              (2220, '-0x1.3eafde2dcfc05p-2'),
                              (2301, '-0x1.4163c74d5b622p-2'),
                              (2462, '-0x1.483acbbfeec7fp-2'),
                              (2705, '-0x1.4eeac3b8c5e1fp-2'),
                              (2786, '-0x1.5246408a205abp-2'),
                              (2866, '-0x1.580ef05e61acdp-2'),
                              (2948, '-0x1.68a00fb1b1021p-2'),
                              (3188, '-0x1.6bee335f1f9bap-2'),
                              (3269, '-0x1.6fcc94d86c57ep-2'),
                              (3350, '-0x1.75f32d914d185p-2'),
                              (3431, '-0x1.93b87858d3e72p-2'),
                              (3511, '-0x1.9707f98487b5ap-2'),
                              (3591, '-0x1.9bfb22c29657ap-2'),
                              (3673, '-0x1.b00b6663c9fb4p-2'),
                              (3753, '-0x1.b0a706d70af94p-2'),
                              (3834, '-0x1.cfb921e2100a5p-2'),
                              (3915, '-0x1.daa1a4d17c6e7p-2'),
                              (3997, '-0x1.03a171ed34d6ap-1')],
                  'stages': 'cc cc cc cc cc cc cc cc cc cc cc cc cc cc cc cc cc cc cc '
                            'cc cc cc cc cc cc cc cc cc cc cc cc cc cc cc cc cc cc cc '
                            'cc cc cc cc cc cc cc cc cc cc cc',
                  'collisions': []},
 'bump50-single': {'evals': 1502,
                   'terminated_by': 'eval_budget',
                   'best': '-0x1.2ff19d1db6290p-3',
                   'history': [(1, '-0x1.7f82c25311a4dp-4'),
                               (102, '-0x1.91329bac29c78p-4'),
                               (202, '-0x1.a256e2edd963ep-4'),
                               (302, '-0x1.b242ea95e8635p-4'),
                               (402, '-0x1.c201cde6298ffp-4'),
                               (502, '-0x1.d1c97110bb9a4p-4'),
                               (602, '-0x1.e14c8587ed757p-4'),
                               (702, '-0x1.f05737df99b14p-4'),
                               (802, '-0x1.ff160d6c07ff2p-4'),
                               (902, '-0x1.06e18175ec588p-3'),
                               (1002, '-0x1.0decc07e57beap-3'),
                               (1102, '-0x1.14f68eddef0f3p-3'),
                               (1202, '-0x1.1bd4d0658cea8p-3'),
                               (1302, '-0x1.22a20ee39ad19p-3'),
                               (1402, '-0x1.294bebb52960cp-3'),
                               (1502, '-0x1.2ff19d1db6290p-3')]},
 'bump50-multi': {'evals': 2504,
                  'terminated_by': 'eval_budget',
                  'best': '-0x1.2e9ab3bf9c183p-3',
                  'history': [(1, '-0x1.db532faf65a0cp-10'),
                              (2, '-0x1.68520a0a892a4p-4'),
                              (204, '-0x1.7d397e467e969p-4'),
                              (404, '-0x1.920b82b1e6741p-4'),
                              (604, '-0x1.a727936115c75p-4'),
                              (804, '-0x1.bc3537eb0c5b3p-4'),
                              (1004, '-0x1.d115a246bc520p-4'),
                              (1204, '-0x1.e63c48c5b0731p-4'),
                              (1404, '-0x1.fb6754b068020p-4'),
                              (1604, '-0x1.085dfcb8cc59fp-3'),
                              (1804, '-0x1.126a592e43b4cp-3'),
                              (2004, '-0x1.1c277b7effbf1p-3'),
                              (2204, '-0x1.2582ceec6bf6bp-3'),
                              (2404, '-0x1.2e9ab3bf9c183p-3')],
                  'stages': 'cc cc cc cc cc cc cc cc cc cc cc cc',
                  'collisions': []},
 'circuit-single': {'evals': 3923,
                    'terminated_by': 'step_floor',
                    'best': '0x1.6846bcd1a9d8dp-27',
                    'history': [(1, '0x1.32dc37c67518ap+16'),
                                (12, '0x1.712ea712bf1d6p+14'),
                                (23, '0x1.0e65a5f052b3ap+13'),
                                (34, '0x1.9def6d43910edp+11'),
                                (45, '0x1.14d3eeaf84dd0p+10'),
                                (56, '0x1.13d1ace834433p+7'),
                                (66, '0x1.b39e5b3ae6ee0p+6'),
                                (76, '0x1.a17ae32119b9fp+6'),
                                (86, '0x1.5b34cb3d7065dp+6'),
                                (112, '0x1.5a1f0f03659c7p+6'),
                                (122, '0x1.32edd2621dffdp+6'),
                                (180, '0x1.2ee7072da121ap+6'),
                                (237, '0x1.0084060e8398fp+6'),
                                (402, '0x1.82953c472b2c2p+5'),
                                (432, '0x1.64afd397fca74p+5'),
                                (479, '0x1.1ee06a2a1fee2p+5'),
                                (490, '0x1.fb706cb0b2617p+4'),
                                (653, '0x1.56127ae5ba062p+2'),
                                (664, '0x1.2ae5f1dbc3e19p+2'),
                                (693, '0x1.24bf9d7cb962cp+2'),
                                (755, '0x1.f21da8a134f03p+1'),
                                (921, '0x1.3453d6eb95a86p+1'),
                                (972, '0x1.1a075b51e83bdp-5'),
                                (983, '0x1.f70e551c74b45p-6'),
                                (1149, '0x1.d00f402f4e2a2p-6'),
                                (1312, '0x1.4b3662807f5f7p-6'),
                                (1364, '0x1.0baddb3e48445p-6'),
                                (1375, '0x1.f13e5b4c0ea14p-7'),
                                (1541, '0x1.e69e843ed716ap-7'),
                                (1709, '0x1.cf4bbd1d5d650p-8'),
                                (1720, '0x1.ca0df6404d203p-8'),
                                (1771, '0x1.383297cc34b18p-11'),
                                (1782, '0x1.34a717fe12377p-11'),
                                (1992, '0x1.054a05b7cd5e4p-11'),
                                (2003, '0x1.03cb6fb8143d2p-11'),
                                (2075, '0x1.b1f7d781d2ce2p-12'),
                                (2085, '0x1.cd179c9278882p-16'),
                                (2413, '0x1.30fce571e6382p-16'),
                                (2485, '0x1.8becaee703e24p-17'),
                                (2695, '0x1.1bf7ffe13eecep-18'),
                                (2706, '0x1.06140e74d14d6p-19'),
                                (2716, '0x1.05b2da74a1485p-19'),
                                (2727, '0x1.05822542ccd6dp-19'),
                                (2891, '0x1.d812bab623051p-21'),
                                (2943, '0x1.a1d7e388be058p-21'),
                                (2954, '0x1.a18a2db1b4b60p-21'),
                                (2965, '0x1.a16347e70eddap-21'),
                                (3133, '0x1.a14fd249107aap-21'),
                                (3185, '0x1.8d2f8c3dbcc37p-21'),
                                (3196, '0x1.8d0a8ca52b622p-21'),
                                (3207, '0x1.8cf80a423fbbep-21'),
                                (3375, '0x1.2aa34fdfc2e97p-21'),
                                (3427, '0x1.434c6610c94d2p-26'),
                                (3438, '0x1.433d542379b18p-26'),
                                (3606, '0x1.43398f6feae1bp-26'),
                                (3766, '0x1.6848d682c6f43p-27'),
                                (3777, '0x1.6846bcd1a9d8dp-27')]},
 'circuit-multi': {'evals': 3814,
                   'terminated_by': 'step_floor',
                   'best': '0x1.888f52eaaff84p-11',
                   'history': [(1, '0x1.2c2cc4d5a362ep+12'),
                               (13, '0x1.9d31f4110a9d1p+9'),
                               (35, '0x1.f5f7b29b6197dp+7'),
                               (56, '0x1.5d935dfbaa46bp+7'),
                               (76, '0x1.fa5096cc8c4aap+6'),
                               (96, '0x1.dfb86458e1e47p+6'),
                               (117, '0x1.5bcd4e2dea279p+6'),
                               (214, '0x1.586e7432ae556p+6'),
                               (336, '0x1.1b9d4252fa29dp+6'),
                               (457, '0x1.0d3aaae9135f0p+6'),
                               (689, '0x1.ea88921444f8fp+0'),
                               (785, '0x1.68bf968bbbcfcp+0'),
                               (796, '0x1.b03c769e0e140p-2'),
                               (818, '0x1.72af371c7be6ep-2'),
                               (839, '0x1.14767630bb3b7p-2'),
                               (1035, '0x1.c5c85638e2314p-3'),
                               (1150, '0x1.868ed5d64c96ep-3'),
                               (1151, '0x1.e5b1ccda93529p-5'),
                               (1162, '0x1.8921adc106f7dp-5'),
                               (1493, '0x1.48bf8a139cda9p-5'),
                               (1795, '0x1.40da657229b91p-5'),
                               (2144, '0x1.30c76f6770172p-5'),
                               (2270, '0x1.29a7faf5703ebp-5'),
                               (2671, '0x1.a540499f2d0fbp-6'),
                               (2734, '0x1.58915f21961edp-6'),
                               (3094, '0x1.84b247fbebc1ep-9'),
                               (3196, '0x1.b6ec90e327342p-10'),
                               (3297, '0x1.888f52eaaff84p-11')],
                   'stages': 'cc cc cc cc cc cc cc cc cc cc cc cc cc cc cc ic ci cc cc '
                             'cc cc ic ci cc cc cc cc cd ic cc cc cc cr dc cc cc cc rc '
                             'ci cc cc cc cc ic cc ci cc cc cc ic cd cc cc cc cc ic cc '
                             'cc cc cc ci ic cc cc cc cc dc ci cc cc cc rc cc ci cc cc '
                             'cc ic cc ci cc cc dc cc cc ci cc rc cc cc cc ci ic cc cc '
                             'cc cd dc cc cc cc cr rc cc cc cc ci cc ic cc cc cd cc cc '
                             'ic cc cr cc cc dc cc ci cc cc rc cc cd cc cc cc cc cr cc '
                             'cc cc cc ci ic cc cc cc cd dc cc cc cc cr rc cc cc cc cc '
                             'cc cc cc cc ci cc cc cc cc cc cc ic cc cc ci cc dc cc cc '
                             'cd cc rc cc cc cr cc cc cc cc ci cc cc cc cc cd cc cc cc '
                             'cc cr',
                   'collisions': [(24, '0x0.0p+0'),
                                  (46, '0x0.0p+0'),
                                  (66, '0x0.0p+0'),
                                  (86, '0x0.0p+0'),
                                  (106, '0x0.0p+0'),
                                  (128, '0x0.0p+0'),
                                  (148, '0x0.0p+0'),
                                  (166, '0x0.0p+0'),
                                  (186, '0x0.0p+0'),
                                  (204, '0x0.0p+0'),
                                  (224, '0x0.0p+0'),
                                  (244, '0x0.0p+0'),
                                  (264, '0x0.0p+0'),
                                  (284, '0x0.0p+0'),
                                  (304, '0x0.0p+0')]}}
