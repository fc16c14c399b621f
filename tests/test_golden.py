"""Golden artifacts: every shipped scenario reproduces its trajectory.csv,
summary.json and plot.svg byte for byte.

The CSV and summary digests pin the artifacts as written before the
trajectory became columnar and the preparation gate began counting whole
ticks; the plot and stretched-run digests pin them as written by Python's
own `%` formatting, before number formatting was vectorized.  The summary
digests were taken again when r_max began to take e**y - 1 from expm1,
which moved only its last digits (2 to 10 ulps).  The plot digests were
taken again when plot.svg began to keep only the first, last, lowest and
highest rows of each pixel column; five of the eight shipped plots kept
every row and their bytes.  A change that moves any digit of any file fails
here.
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
        "59b71012cf2c4b31341dad60372f39edb2f04fa34cb773f57cb0862030d81df2",
    ),
    "nm_prep_gate": (
        "b1ea8390d3ba9b96a2a6a14b853531eb3e758aa1b1b2da292749830d6ceac4b9",
        "25047b4eb73e0b4cd19ba6e5bb12b31ec80640ea53ce849b323fcc06cb9c72b2",
    ),
    "nm_small_threshold": (
        "2fd0f898210c631fe1d31b04302603e48bb49ec2dbc6378849dbcb5fb3058821",
        "74bf6693a64f70ef526fd874cbba24fbe44936b97324116375c9418a0415b2d2",
    ),
    "nm_tracking": (
        "f9ae39b3980e661930df3558aa3b985a5b0d847d999ea81270fd85f9fea0337d",
        "efac66458a34e7b733ba179eeafb5ae060771558148e6b439cc84a72acae3e9c",
    ),
    "sdm_ic_fast": (
        "6077cd54e048afb7b2ca8f4962e7dacf3cc2606e7e06646ca80e5f237d0b1c24",
        "26e85a2d7bac4bd13de19af8a23a841846b2340b6db2230fe0bf2af3df2b3b96",
    ),
    "sdm_ic_slow": (
        "cf58c51a5d168cfd5cdce143d72bb2d2b9993dc04776f4ae99e217975a1a9108",
        "bb465673cfd49cf63ac6433c78e35c0dea98b3d65c464dce6390e03cc13b96bf",
    ),
    "sdm_jm": (
        "8813751a64bbd08a2a4fa5d6210934f778996f3a8fcda7db5f26a930ebb5db8f",
        "aad9746ea3535824961a7b24111798f75323ecf9c241fa1059d9d6027ab18915",
    ),
    "sdm_windup": (
        "92980a1d434cb8e7bf07772ffcb8f57ebbcb6d45abd0da4e8156ddf358ebb2a9",
        "ab05d960232149adc559aa49178ccfb89fac8c6f790e58e8e8927f61950df387",
    ),
}


GOLDEN_SVG = {
    "nm_gas_gun": "2771bfdfa6bcb61a7dbc553118e85e8262f2994c35a148c1c39364bbdf75b392",
    "nm_prep_gate": "00a77eb085325c579533ef615222ac5aa8aed3bfa6f3626fa45d814b3ca6a46b",
    "nm_small_threshold": "d39940576f96bf5cf99f1b919dfa77d23325f916c2a81873a302b1fcb4427161",
    "nm_tracking": "8184886f621159ed8128f2794fd997cca2ed6f6be75c5b999e11ee18e156d6ec",
    "sdm_ic_fast": "a2a0650092ba1ce9b29253d045ce2f327fdc7b0546aa0da8933a0ed9a8eca3d6",
    "sdm_ic_slow": "9d7e38f434117b776225a09d89188486565fecccca472c4961f809b52cf25d0f",
    "sdm_jm": "e200b013412839f36fc87dfb40f3f7eaa0e4823b0ae1a2f008a37945ae39d1bd",
    "sdm_windup": "e7f7e037c90ee33ee90dcb2bc7785e8b422eb96298b61834126228b8a14deb86",
}

# Shipped scenarios stretched to about 20,000 samples with x0 = 0.6 r: each
# run spans several formatting blocks, and nm_gas_gun's trajectory.csv holds
# values whose digits come from the exact fallback.
# (trajectory.csv, summary.json, plot.svg)
GOLDEN_STRETCHED = {
    "nm_gas_gun": (
        "7e27efa987ac55ddda9d93e9e3c2e5876a31ce95a646022d6bf75cfb4f341af5",
        "329863a423ebb04e3cac11cbe1fdb906c66aedfcc2b2292a9f6d285613426eae",
        "82ed1495339e5e97b20f0e86ba5b46b4ee4a7748c6a2a96a1494f7fd3e5d6ebe",
    ),
    "nm_tracking": (
        "bddf7275b8b06cd8a52aca92b3743e9d55914e49bff0481ab58acc212ca67f6f",
        "41ed0ac06488bc73761f3f56cfb24e2fe5f994ed06485942f62a4c42b64989bc",
        "224a12dbe1f0ca6c59f150e49e7a248882541f9935819915d33bf64dd8868e13",
    ),
    "sdm_ic_fast": (
        "ee1e670d56a902c7f1ab26875d0b081a2feec1fc41b5c2a41acfa8b7b1887cc2",
        "5f3af59b4b131018e8ae71b4aea12a094d23dc9d86225deb3492b58dcc47f03e",
        "5bc2342b1aedd185567bfda65b86b0333a8cf4a18868da6f4b47f0cbb84fa0b1",
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
