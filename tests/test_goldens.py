"""Golden tripwires: sha256 of fixed-seed CLI outputs.

A refactor that must keep the bits proves it here; a change that moves a
digest on purpose updates it and says why in CHANGES.md. Each CLI case runs
once with the BLAS thread pools pinned to one thread and once pinned to two,
against the same digest: the bytes must not depend on the BLAS thread count.

The PPM outputs are quantized to uint8, so one more digest pins the face
oracle's float64 bits: renders, stylized images and their attributes, and
further digests pin the float64 bits of ``run_style_first``'s output image
(the per-cell reference in ``reference.py``),
at each BLAS thread count as the CLI cases are. What no CSV pins is pinned
the same way for one small ``ablate_attention`` run: the ``repr`` of each
of its ``extras`` and the sha256 of the weights each SGD phase trains.

The pools' size is fixed when numpy loads, so each thread count needs its
own interpreter: one subprocess per thread count runs every CLI case (through
``cli.main``, each into its own output directory) and every
``run_style_first`` digest, and each case's test reads its share.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import craftfaces
from craftfaces.facegen import StyleOp, face_grid, graffiti_stylize, render_face
from craftfaces.identity import extract_attributes

SRC = str(Path(craftfaces.__file__).resolve().parents[1])
TESTS = str(Path(__file__).resolve().parent)  # for the golden script's ``reference`` import

GOLDENS = [
    (
        "ablate-order --faces 4 --intensities 0.3,0.8 --sweep-seeds 2 --seed 7",
        "order_report.csv",
        "34b3fc4b5c71a005a49b5c83ee218bfc22abfd602f9bcf3d20d218c151895a38",
    ),
    (
        "ablate-order --faces 2 --intensities 0.3,0.8 --sweep-seeds 2 --image-size 32 --seed 7",
        "order_report.csv",
        "f1181de5d2fdcb91901c9f60734304060c876fe51435f05d049fce1a05ceeed7",
    ),
    (
        "diffuse --seed 5 --steps 10 --window 3 --image-size 32",
        "face_0_diffused.ppm",
        "ee54f0d107924ebe12c0855959591fba0c5e28786fe361ffc8578b2b7e0994f5",
    ),
    (
        "diffuse --seed 7",
        "face_0_diffused.ppm",
        "78ec428ba43c3f1aec2a6ffdfcd3fddc36ec6ef4aab17ae55383aa9ae350fe90",
    ),
    (
        "train --lora --seed 7",
        "adapters.csv",
        "5d16bbf93e78bff6c82cf4d6a41952ad4d110ea1e5befc480b0a2cbd8f556f39",
    ),
    (
        "train --lora --seed 7 --token-dim 8",
        "adapters.csv",
        "0cea84310211e717199aec5fae5449a0ba0906ffc7f8ffa72deb747556237e06",
    ),
    (
        "attn-map --seed 7 --with-identity",
        "attn_map_0.csv",
        "b4161c0ee5f896ce4385f18bec6f03ff14956cc80a0ce9c25741e99bf09ecced",
    ),
    (
        "attn-map --seed 7",
        "attn_map_0.csv",
        "ebdff2e6b57063d3c512d70918413120b5b20b8fa2e216b609fe56738fcf83a2",
    ),
    (
        "ablate-attention --faces 2 --arm-seeds 2 --train-steps 80 --image-size 32 --seed 3",
        "attention_report.csv",
        "56523db4407c53a5e266fcc4f86b5c5c01fd6bd20cd1a81b8a584e1b1382b514",
    ),
    (
        "ablate-attention --faces 2 --arm-seeds 2 --train-steps 80 --image-size 32 --seed 3"
        " --latent-tokens 16 --token-dim 8",
        "attention_report.csv",
        "76052cda70b8353aedd45ef04c0397b6b52561c0f9643db3194965bd78bc8f90",
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

# odd widths, and eye halves whose width is not a multiple of 8, are where a
# vectorized reduction could group a sum differently from a per-row one
ORACLE_SIZES = (32, 33, 40, 47, 96)
MULTI_SIZE_ORACLE_DIGEST = "768b2d2b18bd548f45b29158d5f80f9aeaef880c2600a47d79dd9c91f6c0d0c6"


# run_style_first's output image at a small shape: (label, config keys, digest);
# the zero-intensity case restores nothing, the other redraws the landmarks
STYLE_FIRST_GOLDENS = [
    (
        "style-first",
        {"image_size": 32, "seed": 7},
        "6fd084b0b5333fdf4c52063d59ed8bc0d0ac83ff66e1db6a15e209209354b6d3",
    ),
    (
        "style-first-intensity-0",
        {"image_size": 32, "seed": 7, "style_intensity": 0.0},
        "b2225f71d9ec1897d4462acba104678ac643d1bc56a157be0bc28765c0f9e284",
    ),
]

# one small ablate_attention run at the criterion-8 shape: its config keys and
# arguments, then the repr of each of its extras, and the sha256 of the weights
# (every array of ``params()``, in order) of the base phase and then of the
# identity phase
ABLATION = (
    {"seed": 3, "image_size": 32, "latent_tokens": 16, "token_dim": 8},
    {"faces": 3, "face_seed": 11, "seeds": 2, "train_steps": 40, "base_steps": 24},
)
ABLATION_EXTRAS = {
    "mean_ffc_id": "0.8116032518922971",
    "mean_ffc_base": "0.811594070999067",
    "mean_mass_id": "0.28393349115366984",
    "mean_mass_base": "0.28398723054238767",
    "paired_se": "8.441684417729704e-06",
    "id_wins": "3",
}
# the extras that score identity against chance, which the ablation gained after the six above
IDENTIFICATION_EXTRAS = {
    "ident_rate_id": "0.3333333333333333",
    "ident_rate_base": "0.3333333333333333",
    "mean_ffc_others_id": "0.7994659325507527",
    "mean_ffc_others_base": "0.7994623692042842",
}
ABLATION_WEIGHTS = [
    "7b3d7528a73a2625784ec4316adadeae063a9a3c117d935c93ce3627722a22e8",
    "b5ce6acce0dd28c6a4c2953de6692e75150d3a5a31ee09e2c103f21ef09655ce",
]

# given a JSON triple (CLI argvs, run_style_first configs, ABLATION): runs each
# argv through the CLI, its output sent to stderr, then prints a JSON list
# (each argv's exit code, the sha256 of run_style_first's output image for each
# config, the ablation's extras by repr and its two weight digests)
_GOLDEN_SCRIPT = """
import contextlib, hashlib, json, sys
import craftfaces.pipeline as pl
from craftfaces.cli import main
from craftfaces.facegen import face_grid, render_face
from craftfaces.pipeline import PipelineConfig
from reference import run_style_first
commands, configs, (ablation, args) = json.loads(sys.argv[1])
with contextlib.redirect_stdout(sys.stderr):
    codes = [main(argv) for argv in commands]
digests = []
for config in configs:
    cfg = PipelineConfig(**config)
    img = render_face(face_grid(1, seed=cfg.seed)[0], cfg.image_size)
    digests.append(hashlib.sha256(run_style_first(img, cfg)[0].tobytes()).hexdigest())
trained, real_sgd = [], pl._sgd_train
pl._sgd_train = lambda *a, **kw: trained.append(real_sgd(*a, **kw)) or trained[-1]
report = pl.ablate_attention(face_grid(args["faces"], seed=args["face_seed"]), PipelineConfig(**ablation),
                             seeds=range(args["seeds"]), train_steps=args["train_steps"],
                             base_steps=args["base_steps"])
extras = {key: repr(value) for key, value in report.extras.items()}
weights = [hashlib.sha256(b"".join(w.tobytes() for w in m.params().values())).hexdigest() for m in trained]
print(json.dumps([codes, digests, extras, weights]))
"""


BLAS_THREADS = ("1", "2")


def _at_blas_threads(cases):
    """Each case at one BLAS thread (id: the command) and at two (id: the
    command plus ``-blas2``)."""
    return [
        pytest.param(*case, threads, id=case[0] if threads == "1" else f"{case[0]}-blas{threads}")
        for case in cases
        for threads in BLAS_THREADS
    ]


def _start(threads, base) -> tuple[subprocess.Popen, dict]:
    """Start the golden script with the BLAS pools at ``threads``, each CLI
    case writing into its own directory under ``base``; return the process
    and those directories by argv."""
    argvs = [argv for argv, *_ in GOLDENS + FACE_GOLDENS]
    out_dirs = {argv: base / str(i) for i, argv in enumerate(argvs)}
    commands = [[*argv.split(), "--out-dir", str(out_dirs[argv])] for argv in argvs]
    configs = [config for _, config, _ in STYLE_FIRST_GOLDENS]
    spec = [commands, configs, ABLATION]
    env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, TESTS, env.get("PYTHONPATH")) if p)
    proc = subprocess.Popen([sys.executable, "-c", _GOLDEN_SCRIPT, json.dumps(spec)],
                            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    return proc, out_dirs


@pytest.fixture(scope="module")
def golden_run(tmp_path_factory):
    """``at(threads)``: each CLI case's output directory, by argv, each
    ``run_style_first`` digest, by label, and the ablation's extras and
    weight digests, from the subprocess at ``threads`` BLAS threads. Both thread counts' subprocesses start together on first
    use, so they run side by side."""
    started, runs = {}, {}

    def at(threads):
        if not started:
            for n in BLAS_THREADS:
                started[n] = _start(n, tmp_path_factory.mktemp(f"goldens-blas{n}"))
        if threads not in runs:
            proc, out_dirs = started[threads]
            out, err = proc.communicate()
            assert proc.returncode == 0, err
            codes, digests, extras, weights = json.loads(out)
            assert codes == [0] * len(out_dirs), err
            labels = [label for label, *_ in STYLE_FIRST_GOLDENS]
            runs[threads] = (out_dirs, dict(zip(labels, digests)), (extras, weights))
        return runs[threads]

    yield at
    for proc, _ in started.values():  # one whose thread count no selected test read
        if proc.returncode is None:
            proc.kill()
            proc.communicate()


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("argv, artifact, digest, threads", _at_blas_threads(GOLDENS))
def test_cli_output_matches_golden(argv, artifact, digest, threads, golden_run):
    out_dirs, *_ = golden_run(threads)
    assert _sha256(out_dirs[argv] / artifact) == digest


@pytest.mark.parametrize("argv, digests, threads", _at_blas_threads(FACE_GOLDENS))
def test_cli_face_outputs_match_golden(argv, digests, threads, golden_run):
    out_dirs, *_ = golden_run(threads)
    assert {name: _sha256(out_dirs[argv] / name) for name in digests} == digests


@pytest.mark.parametrize("label, config, digest, threads", _at_blas_threads(STYLE_FIRST_GOLDENS))
def test_style_first_image_matches_golden(label, config, digest, threads, golden_run):
    _, style_first, _ = golden_run(threads)
    assert style_first[label] == digest


@pytest.mark.parametrize("threads", BLAS_THREADS, ids=lambda n: f"blas{n}")
def test_attention_ablation_extras_match_golden(threads, golden_run):
    *_, (extras, _) = golden_run(threads)
    assert {key: extras[key] for key in ABLATION_EXTRAS} == ABLATION_EXTRAS


@pytest.mark.parametrize("threads", BLAS_THREADS, ids=lambda n: f"blas{n}")
def test_attention_ablation_identification_extras_match_golden(threads, golden_run):
    *_, (extras, _) = golden_run(threads)
    assert {key: extras[key] for key in IDENTIFICATION_EXTRAS} == IDENTIFICATION_EXTRAS


@pytest.mark.parametrize("threads", BLAS_THREADS, ids=lambda n: f"blas{n}")
def test_attention_ablation_weights_match_golden(threads, golden_run):
    *_, (_, weights) = golden_run(threads)
    assert weights == ABLATION_WEIGHTS


def _oracle_digest(sizes) -> str:
    """Per face of ``face_grid(4, seed=7)`` and per size: the render and its
    attributes, then at each intensity the stylized image and its
    attributes, all hashed at full float64 precision."""
    h = hashlib.sha256()
    for params in face_grid(4, seed=7):
        for size in sizes:
            img = render_face(params, size)
            h.update(img.tobytes())
            h.update(extract_attributes(img).tobytes())
            for intensity in (0.3, 0.7, 1.0):
                styled = graffiti_stylize(img, StyleOp(intensity=intensity))
                h.update(styled.tobytes())
                h.update(extract_attributes(styled).tobytes())
    return h.hexdigest()


def test_face_oracle_float_bits_match_golden():
    assert _oracle_digest((64,)) == ORACLE_DIGEST


def test_face_oracle_float_bits_match_golden_at_odd_sizes():
    assert _oracle_digest(ORACLE_SIZES) == MULTI_SIZE_ORACLE_DIGEST
