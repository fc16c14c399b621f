"""Golden artifacts: every shipped scenario reproduces its trajectory.csv,
summary.json and plot.svg byte for byte.

The CSV and summary digests pin the artifacts as written before the
trajectory became columnar and the preparation gate began counting whole
ticks; the plot and stretched-run digests pin them as written by Python's
own `%` formatting, before number formatting was vectorized.  A change
that moves any digit of any file fails here.
"""

import dataclasses
import hashlib
from pathlib import Path

import pytest

from pelletsim import load_scenario, run_scenario

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"

GOLDEN = {
    "nm_gas_gun": (
        "456afea6969eaa3620e848ed75d46200026d8588efd3eeeb8d1314066203c828",
        "d5111fb8555f4450b8806ea01b0b26f0d0e4c18cf3e573373123a68bc7f304d4",
    ),
    "nm_prep_gate": (
        "b1ea8390d3ba9b96a2a6a14b853531eb3e758aa1b1b2da292749830d6ceac4b9",
        "ffcb20cd769388d7c3fdb05c1f716446ae7155a2272e0dca715d5801d7bbf9f1",
    ),
    "nm_small_threshold": (
        "2fd0f898210c631fe1d31b04302603e48bb49ec2dbc6378849dbcb5fb3058821",
        "da5f744c3db06e54f10755c2aed036b00a96ad505b7a792a877fa08afbc2a90e",
    ),
    "nm_tracking": (
        "f9ae39b3980e661930df3558aa3b985a5b0d847d999ea81270fd85f9fea0337d",
        "5f30670d88551d37fe2b4019e8ea25a4cac431e7e7e130a3c89a48abd631c7eb",
    ),
    "sdm_ic_fast": (
        "6077cd54e048afb7b2ca8f4962e7dacf3cc2606e7e06646ca80e5f237d0b1c24",
        "d530f2ab93f29d8c2a064c11a1790b66764695de0ccea6cba4a02ca2c644c401",
    ),
    "sdm_ic_slow": (
        "cf58c51a5d168cfd5cdce143d72bb2d2b9993dc04776f4ae99e217975a1a9108",
        "0bcbae727cf3d2c8cee947d688128ce3915e358734d37f9ca0325abfd14e18f3",
    ),
    "sdm_jm": (
        "8813751a64bbd08a2a4fa5d6210934f778996f3a8fcda7db5f26a930ebb5db8f",
        "a0ed4ff98a01f7d6408ab9561c949d2e6dcaa5ad352d07121e8676854dc079a9",
    ),
    "sdm_windup": (
        "92980a1d434cb8e7bf07772ffcb8f57ebbcb6d45abd0da4e8156ddf358ebb2a9",
        "8b336a44e3310e8fdee715c96d50395f13abc2db34d3f27745a98b81366195ef",
    ),
}


GOLDEN_SVG = {
    "nm_gas_gun": "78891c634d02fa06ec9c87dae02c9d73d47019262469dd8d8ce68eb10918193b",
    "nm_prep_gate": "8348d532ba9f1364cc9fb026b297f6546b44010ff754524b803897a6b7c63285",
    "nm_small_threshold": "d39940576f96bf5cf99f1b919dfa77d23325f916c2a81873a302b1fcb4427161",
    "nm_tracking": "8184886f621159ed8128f2794fd997cca2ed6f6be75c5b999e11ee18e156d6ec",
    "sdm_ic_fast": "9ec13781b4b0655c4d6b1ffe08e70ed23545e0469c1234f75b6c2f95bd7a3d29",
    "sdm_ic_slow": "9d7e38f434117b776225a09d89188486565fecccca472c4961f809b52cf25d0f",
    "sdm_jm": "e200b013412839f36fc87dfb40f3f7eaa0e4823b0ae1a2f008a37945ae39d1bd",
    "sdm_windup": "e7f7e037c90ee33ee90dcb2bc7785e8b422eb96298b61834126228b8a14deb86",
}

# Shipped scenarios stretched to about 20,000 samples with x0 = 0.6 r: each
# file spans several formatting blocks, and sdm_ic_fast (plot) and nm_gas_gun
# (both files) hold values whose digits come from the exact fallback.
# (trajectory.csv, summary.json, plot.svg)
GOLDEN_STRETCHED = {
    "nm_gas_gun": (
        "7e27efa987ac55ddda9d93e9e3c2e5876a31ce95a646022d6bf75cfb4f341af5",
        "7fd31733f7531f1eb10f22083f3595bf76b5c51066bb07a7b05768c684bae23d",
        "57f6a994a8ff56d0a5983627cec425745873b5f3786e61e997c06ca9ed4aaa91",
    ),
    "nm_tracking": (
        "bddf7275b8b06cd8a52aca92b3743e9d55914e49bff0481ab58acc212ca67f6f",
        "ef74b82ab6ac249fbb53fc59c8f59612ee561b89a7de87ea3414779935a5fa23",
        "f4b4b7ba7f2f876799396a62312ec0f6a4a8c5979248883fff8db1ecbe51d021",
    ),
    "sdm_ic_fast": (
        "ee1e670d56a902c7f1ab26875d0b081a2feec1fc41b5c2a41acfa8b7b1887cc2",
        "52628e41b9f7b9e5ab5b7d490c2afc249df051e5871d8aaecbd9e2a93a449ec9",
        "70efff9239f7b03e7399104890e37acf3ccf367e494eef50219c96456c4c5680",
    ),
}
STRETCHED_SAMPLES = 20_000


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_every_shipped_scenario_has_a_golden_digest():
    assert sorted(p.stem for p in SCENARIOS.glob("*.json")) == sorted(GOLDEN)
    assert sorted(GOLDEN_SVG) == sorted(GOLDEN)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_artifacts_match_golden_digests(tmp_path, name):
    run_scenario(load_scenario(SCENARIOS / f"{name}.json"), outdir=tmp_path)
    csv_digest, summary_digest = GOLDEN[name]
    assert sha256(tmp_path / "trajectory.csv") == csv_digest
    assert sha256(tmp_path / "summary.json") == summary_digest


@pytest.mark.parametrize("name", sorted(GOLDEN_SVG))
def test_plot_matches_golden_digest(tmp_path, name):
    run_scenario(load_scenario(SCENARIOS / f"{name}.json"), outdir=tmp_path, svg=True)
    assert sha256(tmp_path / "plot.svg") == GOLDEN_SVG[name]


def stretched(name: str):
    scenario = load_scenario(SCENARIOS / f"{name}.json")
    ticks = STRETCHED_SAMPLES / (scenario.samples_per_tick + 1)
    return dataclasses.replace(
        scenario, x0=0.6 * scenario.plant.r, t_end=round(ticks * scenario.actuator.t_c, 1)
    )


@pytest.mark.parametrize("name", sorted(GOLDEN_STRETCHED))
def test_stretched_run_matches_golden_digests(tmp_path, name):
    result = run_scenario(stretched(name), outdir=tmp_path, svg=True)
    assert len(result.trajectory.t) > STRETCHED_SAMPLES
    digests = [sha256(tmp_path / f) for f in ("trajectory.csv", "summary.json", "plot.svg")]
    assert digests == list(GOLDEN_STRETCHED[name])
