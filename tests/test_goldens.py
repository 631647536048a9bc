"""Golden tripwires: sha256 of fixed-seed CLI outputs.

A refactor that must keep the bits proves it here; a change that moves a
digest on purpose updates it and says why in CHANGES.md. Each CLI case runs
the CLI in a subprocess with the BLAS thread pools pinned to one thread: the
codec's QR factorisation rounds differently at other thread counts, so the
bytes are stable for a fixed thread count, not across thread counts.

The PPM outputs are quantized to uint8, so one more digest pins the face
oracle's float64 bits: renders, stylized images and their attributes.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import craftfaces
from craftfaces.facegen import StyleOp, face_grid, graffiti_stylize, render_face
from craftfaces.identity import extract_attributes

SRC = str(Path(craftfaces.__file__).resolve().parents[1])

GOLDENS = [
    (
        "ablate-order --faces 4 --intensities 0.3,0.8 --sweep-seeds 2 --seed 7",
        "order_report.csv",
        "033388f57587427ee8274062da9f6e999a5d5636720c44e986dd0a3b2d736724",
    ),
    (
        "diffuse --seed 5 --steps 10 --window 3 --image-size 32",
        "face_0_diffused.ppm",
        "8b021957056d66b106c552ef4980fa1a0b66f5ed258875ed320a33df9e4dee9c",
    ),
    (
        "diffuse --seed 7",
        "face_0_diffused.ppm",
        "953a51eb10caa2d6f130aae88f9d6d3469134c39422204976de302a64f2ddce4",
    ),
    (
        "train --lora --seed 7",
        "adapters.csv",
        "0b920c8d13b55dbf3bbac1b4a6effb9b11681860ca99ba1945b906e2217723de",
    ),
    (
        "train --lora --seed 7 --token-dim 8",
        "adapters.csv",
        "5ebe0c3bb5d8278fca1062b2cb094c4b1d29b56c0cc48f28199791af466991a7",
    ),
    (
        "attn-map --seed 7 --with-identity",
        "attn_map_0.csv",
        "ad1fd97d268b5856a219436b6226f5c9b8632b3b60765399a21c3c7c3e696419",
    ),
    (
        "attn-map --seed 7",
        "attn_map_0.csv",
        "9d369545bcc288d710f3c3b55a25440264131339e4c3ee676d7379e14bb31a4a",
    ),
    (
        "ablate-attention --faces 2 --arm-seeds 2 --train-steps 80 --image-size 32 --seed 3",
        "attention_report.csv",
        "cb61be57066b46cc0f2b1a2e620cdc180af5133a743b4f1a99ee2f2ab75771fc",
    ),
    (
        "ablate-attention --faces 2 --arm-seeds 2 --train-steps 80 --image-size 32 --seed 3"
        " --latent-tokens 16 --token-dim 8",
        "attention_report.csv",
        "e6f3de9d70aff992bc82850b11303b9298094abf429dc60dec412701a9c3fc98",
    ),
]


# commands whose artifacts are all pinned: {artifact: digest}
FACE_GOLDENS = [
    (
        "render --seed 7 --face-id 3",
        {
            "face_3_attrs.csv": "2aa0d4467ae47b609babfe10393dc60953e8ca5f06c69f8e9adde9ee666b132d",
            "face_3.ppm": "9c34c1e625ab150fffa47fc08925777a2477611f23dbb92c3645260976009e3e",
        },
    ),
    (
        "stylize --seed 7 --face-id 3",
        {"face_3_styled.ppm": "1f6786dbeaa28f2d79fc2eb8065f216b37079185605f7b8e342bfba507954d6c"},
    ),
]

ORACLE_DIGEST = "726d59528ab58e35a01765bd98527d461dd07c1ac1578f9d3cefac1b0433f1d0"


def _run_cli(argv, out_dir):
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    cmd = [sys.executable, "-m", "craftfaces.cli", *argv.split(), "--out-dir", str(out_dir)]
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("argv, artifact, digest", GOLDENS, ids=[g[0] for g in GOLDENS])
def test_cli_output_matches_golden(argv, artifact, digest, tmp_path):
    _run_cli(argv, tmp_path)
    assert _sha256(tmp_path / artifact) == digest


@pytest.mark.parametrize("argv, digests", FACE_GOLDENS, ids=[g[0] for g in FACE_GOLDENS])
def test_cli_face_outputs_match_golden(argv, digests, tmp_path):
    _run_cli(argv, tmp_path)
    assert {name: _sha256(tmp_path / name) for name in digests} == digests


def test_face_oracle_float_bits_match_golden():
    """Per face of ``face_grid(4, seed=7)``: the 64 px render and its
    attributes, then at each intensity the stylized image and its
    attributes, all hashed at full float64 precision."""
    h = hashlib.sha256()
    for params in face_grid(4, seed=7):
        img = render_face(params, 64)
        h.update(img.tobytes())
        h.update(extract_attributes(img).tobytes())
        for intensity in (0.3, 0.7, 1.0):
            styled = graffiti_stylize(img, StyleOp(intensity=intensity))
            h.update(styled.tobytes())
            h.update(extract_attributes(styled).tobytes())
    assert h.hexdigest() == ORACLE_DIGEST
