"""Golden artifacts: every shipped scenario reproduces its trajectory.csv and
summary.json byte for byte.

The digests pin the artifacts as written before the trajectory became
columnar and the preparation gate began counting whole ticks; a change
that moves any digit of either file fails here.
"""

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


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_every_shipped_scenario_has_a_golden_digest():
    assert sorted(p.stem for p in SCENARIOS.glob("*.json")) == sorted(GOLDEN)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_artifacts_match_golden_digests(tmp_path, name):
    run_scenario(load_scenario(SCENARIOS / f"{name}.json"), outdir=tmp_path)
    csv_digest, summary_digest = GOLDEN[name]
    assert sha256(tmp_path / "trajectory.csv") == csv_digest
    assert sha256(tmp_path / "summary.json") == summary_digest
