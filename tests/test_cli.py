import argparse
import contextlib
import csv
import io
import hashlib
import json
import os
import shlex
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import craftfaces
import craftfaces.pipeline as pl
from craftfaces.cli import (
    _CONFIG_FLAGS, MAX_ARM_SEEDS, MAX_ATTENTION_SCORES, MAX_FACES, MAX_INTENSITIES, MAX_JOBS, MAX_ORDER_CELLS,
    MAX_SWEEP_SEEDS, MAX_TRAIN_STEPS, Command, _atomic_write, _build_parser, main, parse,
)
from craftfaces.errors import CraftError
from craftfaces.lora import load_adapters
from craftfaces.pipeline import (
    DEFAULT_PROMPT, MAX_CODEC_ELEMENTS, MAX_COND_DIM, MAX_LATENT_TOKENS, MAX_LORA_RANK, MAX_STEPS, MAX_TOKEN_DIM,
    PipelineConfig,
)


def run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def _grid(n):
    """An ``--intensities`` value of n distinct intensities spread over [0, 1]."""
    return ",".join(repr(i / (n - 1)) for i in range(n))


# config values at each bound on what sizes the runtime, and one step past it;
# the codec holds 2*image_size**2*latent_tokens*token_dim elements, which one
# more latent token takes past its bound
_CODEC_TOKENS = MAX_CODEC_ELEMENTS // (2 * 64**2 * 4)
_RUNTIME_BOUNDS = {
    "steps": ({"steps": MAX_STEPS}, {"steps": MAX_STEPS + 1}),
    "cond_dim": ({"cond_dim": MAX_COND_DIM}, {"cond_dim": MAX_COND_DIM + 1}),
    "lora_rank": ({"lora_rank": MAX_LORA_RANK}, {"lora_rank": MAX_LORA_RANK + 1}),
    # the smallest codec, so that only the token_dim bound is reached
    "token_dim": ({"image_size": 32, "latent_tokens": 1, "token_dim": MAX_TOKEN_DIM},
                  {"image_size": 32, "latent_tokens": 1, "token_dim": MAX_TOKEN_DIM + 1}),
    # a codec of 2*32**2*257 elements, far below its own bound
    "latent_tokens": ({"image_size": 32, "latent_tokens": MAX_LATENT_TOKENS, "token_dim": 1},
                      {"image_size": 32, "latent_tokens": MAX_LATENT_TOKENS + 1, "token_dim": 1}),
    "codec": ({"image_size": 64, "latent_tokens": _CODEC_TOKENS, "token_dim": 4},
              {"image_size": 64, "latent_tokens": _CODEC_TOKENS + 1, "token_dim": 4}),
}


def _integer_options():
    """(argv, flag) for each option of each command whose type parses
    integers; argv is the command and a file name for each positional."""
    sub = next(a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    options = [
        ([name, *(f"{a.dest}.csv" for a in p._actions if not a.option_strings)], a.option_strings[0])
        for name, p in sub.choices.items()
        for a in p._actions
        if a.option_strings and a.type is not None and type(a.type("1")) is int
    ]
    # the type test above must at least find these, or the test would cover too little
    assert {("train", "--lora-rank"), ("train", "--train-steps"), ("ablate-attention", "--arm-seeds"),
            ("ablate-attention", "--train-steps")} <= {(argv[0], flag) for argv, flag in options}
    return options


class TestParse:
    def test_basic_command(self):
        cmd = parse(["ablate-order", "--faces", "100", "--seed", "7"])
        assert cmd.name == "ablate-order"
        assert cmd.args.faces == 100
        assert cmd.config.seed == 7
        # the largest grid and face id, parsed only: nothing is allocated
        assert parse(["ablate-order", "--faces", str(MAX_FACES)]).args.faces == MAX_FACES
        assert parse(["render", "--face-id", str(MAX_FACES - 1)]).args.face_id == MAX_FACES - 1
        assert parse(["ablate-order", "--jobs", str(MAX_JOBS)]).args.jobs == MAX_JOBS
        # and the largest sweep axes
        args = parse(["ablate-order", "--sweep-seeds", str(MAX_SWEEP_SEEDS),
                      "--intensities", _grid(MAX_INTENSITIES)]).args
        assert (args.sweep_seeds, len(args.intensities)) == (MAX_SWEEP_SEEDS, MAX_INTENSITIES)
        # and the largest sampling seeds and training steps
        args = parse(["ablate-attention", "--arm-seeds", str(MAX_ARM_SEEDS),
                      "--train-steps", str(MAX_TRAIN_STEPS)]).args
        assert (args.arm_seeds, args.train_steps) == (MAX_ARM_SEEDS, MAX_TRAIN_STEPS)
        assert parse(["train", "--train-steps", str(MAX_TRAIN_STEPS)]).args.train_steps == MAX_TRAIN_STEPS

    def test_diffuse_prompt_defaults_to_the_pipeline_prompt(self):
        assert parse(["diffuse"]).args.prompt == DEFAULT_PROMPT

    def test_documented_defaults_accepted(self):
        cmd = parse(["diffuse", "--steps", "100", "--window", "25"])
        assert cmd.config.steps == 100
        assert cmd.config.composition_window == 25

    def test_window_exceeding_steps_rejected(self, capsys):
        code, _, err = run(["diffuse", "--window", "200", "--steps", "100"], capsys)
        assert code == 2
        assert "window" in err

    def test_unknown_command_or_flag(self, capsys):
        assert run(["frobnicate"], capsys)[0] == 2
        assert run(["render", "--no-such-flag"], capsys)[0] == 2
        assert run(["stylize", "--intensity", "0.5"], capsys)[0] == 2  # the flag is --style-intensity
        # a command has no flag for a config key its code path never reads
        for argv in (
            ["render", "--steps", "5"],
            ["stylize", "--token-dim", "8"],
            ["diffuse", "--lora-rank", "2"],
            ["train", "--guidance-scale", "2"],
            ["ablate-order", "--style-intensity", "0.3"],
            ["ablate-order", "--steps", "5"],
            ["ablate-attention", "--style-intensity", "0.3"],
            ["attn-map", "--window", "3"],
            ["attn-map", "--cond-dim", "8"],
            ["ffc", "a.csv", "b.csv", "--image-size", "32"],
        ):
            code, _, err = run(argv, capsys)
            assert code == 2, argv
            assert "unrecognized arguments" in err and argv[-2] in err

    def test_readme_cli_examples_parse(self):
        """Every ``craftfaces`` example in README's CLI block parses, so a
        removed flag cannot linger in the docs. The block's ``printf`` lines
        write the vector CSVs its ``ffc`` example reads."""
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = readme.split("## CLI", 1)[1].split("```bash\n", 1)[1].split("```", 1)[0]
        lines = [shlex.split(line, comments=True) for line in block.replace("\\\n", " ").splitlines()]
        examples = [argv for argv in lines if argv[0] != "printf"]
        assert len(examples) == 8
        for argv in examples:
            assert argv[0] == "craftfaces"
            assert parse(argv[1:]).name == argv[1]

    def test_config_file_and_flag_precedence(self, tmp_path):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"steps": 40, "style_intensity": 0.3, "seed": 5}))
        cmd = parse(["diffuse", "--config", str(cfg_file), "--steps", "60"])
        assert cmd.config.steps == 60  # flag wins
        assert cmd.config.style_intensity == 0.3  # file value kept
        assert cmd.config.seed == 5

    def test_config_file_checked_with_its_flags(self, tmp_path, capsys):
        """Only the resolved config is range-checked: a file that is valid
        only together with its flags runs, and an out-of-range file value
        that a flag overrides is no error."""
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"steps": 10}))  # the default window 25 exceeds it
        argv = ["diffuse", "--config", str(cfg_file), "--window", "3", "--image-size", "32"]
        code, out, _ = run([*argv, "--out-dir", str(tmp_path / "out")], capsys)
        assert code == 0
        header = json.loads(out.splitlines()[0][len("# config "):])
        assert (header["steps"], header["composition_window"]) == (10, 3)
        cfg_file.write_text(json.dumps({"steps": 5000}))
        cmd = parse(["diffuse", "--config", str(cfg_file), "--steps", "10", "--window", "3"])
        assert cmd.config.steps == 10

    def test_overridden_config_value_still_type_checked(self, tmp_path, capsys):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"steps": "10"}))
        code, _, err = run(["diffuse", "--config", str(cfg_file), "--steps", "10"], capsys)
        assert code == 2
        assert err.startswith("error: config key 'steps' must be ")

    def test_unreadable_config(self, tmp_path, capsys):
        bad = tmp_path / "broken.json"
        # the second is not UTF-8; the third nests too deep for json.load to recurse through
        for data in (b"{not json", b"\xff\xfe{}", b"[" * 100000 + b"]" * 100000):
            bad.write_bytes(data)
            code, _, err = run(["render", "--config", str(bad)], capsys)
            assert code == 2, data
            assert err.startswith("error:") and "config" in err

    def test_config_integer_past_the_digit_limit(self, tmp_path, capsys):
        """An integer longer than Python's int-parsing limit (4300 digits)
        is an unreadable config file, not a traceback."""
        cfg = tmp_path / "c.json"
        cfg.write_text('{"steps": ' + "1" * 5000 + "}")
        code, _, err = run(["render", "--config", str(cfg), "--out-dir", str(tmp_path / "out")], capsys)
        assert code == 2
        assert err.startswith("error: unreadable config file")

    def test_unknown_config_key(self, tmp_path, capsys):
        bad = tmp_path / "extra.json"
        for values in ({"stepz": 10}, {"use_diffusion": True}):
            bad.write_text(json.dumps(values))
            code, _, err = run(["render", "--config", str(bad)], capsys)
            assert code == 2
            assert err.startswith("error: unknown config keys") and next(iter(values)) in err

    def test_malformed_intensities_rejected(self, capsys):
        code, _, err = run(["ablate-order", "--faces", "1", "--intensities", "0.3,abc"], capsys)
        assert code == 2
        assert "error:" in err and "--intensities" in err

    @pytest.mark.parametrize(
        "command, flag, value",
        [
            pytest.param("ablate-order", "--jobs", "0", id="--jobs-0"),
            pytest.param("ablate-order", "--jobs", "-3", id="--jobs--3"),
            # past MAX_JOBS, refused while parsing: no worker starts
            pytest.param("ablate-order", "--jobs", str(MAX_JOBS + 1), id=f"--jobs-{MAX_JOBS + 1}"),
            pytest.param("ablate-order", "--sweep-seeds", "0", id="--sweep-seeds-0"),
            # sweep axes past their bounds, refused while parsing: no sweep runs
            pytest.param("ablate-order", "--sweep-seeds", str(MAX_SWEEP_SEEDS + 1),
                         id=f"--sweep-seeds-{MAX_SWEEP_SEEDS + 1}"),
            pytest.param("ablate-order", "--intensities", _grid(MAX_INTENSITIES + 1),
                         id=f"--intensities-{MAX_INTENSITIES + 1}-values"),
            pytest.param("ablate-attention", "--arm-seeds", "0", id="--arm-seeds-0"),
            pytest.param("ablate-attention", "--arm-seeds", str(MAX_ARM_SEEDS + 1),
                         id=f"--arm-seeds-{MAX_ARM_SEEDS + 1}"),
            pytest.param("ablate-attention", "--train-steps", "0", id="ablate-attention--train-steps-0"),
            pytest.param("train", "--train-steps", "-5", id="train--train-steps--5"),
        ]
        # training past MAX_TRAIN_STEPS, refused while parsing: no training starts
        + [pytest.param(c, "--train-steps", str(MAX_TRAIN_STEPS + 1),
                        id=f"{c}--train-steps-{MAX_TRAIN_STEPS + 1}")
           for c in ("train", "ablate-attention")]
        + [
            pytest.param("train", "--faces", "0", id="train--faces-0"),
            pytest.param("ablate-order", "--faces", "-2", id="ablate-order--faces--2"),
            pytest.param("ablate-attention", "--faces", "0", id="ablate-attention--faces-0"),
        ]
        # and grids past MAX_FACES, refused before any allocation
        + [pytest.param(c, "--faces", str(MAX_FACES + 1), id=f"{c}--faces-{MAX_FACES + 1}")
           for c in ("train", "ablate-order", "ablate-attention")],
    )
    def test_counts_below_one_rejected(self, command, flag, value, capsys):
        code, _, err = run([command, "--faces", "1", flag, value], capsys)
        assert code == 2
        assert "error:" in err and flag in err

    @pytest.mark.parametrize(
        "command, face_id",
        # -1, and ids past a MAX_FACES grid, refused before the grid is built
        [pytest.param(c, i, id=c if i == "-1" else f"{c}-{i}")
         for i in ("-1", str(MAX_FACES), "99999999999")
         for c in ("render", "stylize", "diffuse", "attn-map")],
    )
    def test_negative_face_id_rejected(self, command, face_id, capsys):
        code, _, err = run([command, "--face-id", face_id], capsys)
        assert code == 2
        assert "error:" in err and "--face-id" in err and f"got {face_id}" in err
        assert "grid size" not in err

    def test_duplicate_intensities_rejected(self, tmp_path, capsys):
        argv = ["ablate-order", "--faces", "1", "--intensities", "0.3,0.3", "--sweep-seeds", "1"]
        code, _, err = run([*argv, "--out-dir", str(tmp_path)], capsys)
        assert code == 2
        assert "error:" in err and "distinct" in err
        assert not (tmp_path / "order_report.csv").exists()

    @pytest.mark.parametrize("intensities, bad", [("1.5", "1.5"), ("0.5,nan", "nan"), ("0.5,-0.25", "-0.25"),
                                                  ("0.5,inf", "inf")])
    def test_intensity_outside_the_unit_interval_rejected(self, intensities, bad, tmp_path, capsys):
        """The message names the sweep's intensity, not a flag the command
        does not take."""
        argv = ["ablate-order", "--faces", "1", "--intensities", intensities, "--out-dir", str(tmp_path)]
        code, _, err = run(argv, capsys)
        assert code == 2
        assert err == f"error: ablate_order intensity {bad} is not a finite value in [0, 1]\n"
        assert not (tmp_path / "order_report.csv").exists()

    @pytest.mark.parametrize("values", [{"steps": "10"}, {"seed": "abc"}, {"image_size": True}])
    def test_config_value_of_wrong_type(self, values, tmp_path, capsys):
        bad = tmp_path / "typed.json"
        bad.write_text(json.dumps(values))
        code, _, err = run(["render", "--config", str(bad)], capsys)
        assert code == 2
        # the type check's message, not a range check's: bool subclasses int,
        # so only from_dict's type() check names a JSON true for an int key
        assert err.startswith(f"error: config key {next(iter(values))!r} must be ")

    @pytest.mark.parametrize(
        "command, flag, value",
        [
            pytest.param(["diffuse"], "--guidance-scale", "nan", id="--guidance-scale-nan"),
            pytest.param(["diffuse"], "--guidance-scale", "inf", id="--guidance-scale-inf"),
            pytest.param(["train", "--lora"], "--lora-alpha", "nan", id="--lora-alpha-nan"),
            pytest.param(["train", "--lora"], "--lora-alpha", "inf", id="--lora-alpha-inf"),
        ],
    )
    def test_non_finite_flag_rejected(self, command, flag, value, tmp_path, capsys):
        argv = [*command, flag, value, "--steps", "3", "--window", "1", "--image-size", "32"]
        code, _, err = run(argv + ["--out-dir", str(tmp_path)], capsys)
        assert code == 2
        assert err.startswith("error:") and flag[2:].replace("-", "_") in err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize(
        "text", ['{"lora_alpha": NaN}', '{"guidance_scale": Infinity}', '{"style_intensity": -Infinity}']
    )
    def test_non_finite_config_value_rejected(self, text, tmp_path, capsys):
        bad = tmp_path / "nonfinite.json"
        bad.write_text(text)
        code, _, err = run(["render", "--config", str(bad), "--out-dir", str(tmp_path)], capsys)
        assert code == 2
        assert err.startswith("error:") and json.loads(text).popitem()[0] in err

    def test_seed_env_fallback(self, monkeypatch):
        monkeypatch.setenv("CRAFT_SEED", "41")
        assert parse(["render"]).config.seed == 41
        monkeypatch.delenv("CRAFT_SEED")
        assert parse(["render"]).config.seed == 0

    def test_explicit_seed_beats_env(self, monkeypatch):
        monkeypatch.setenv("CRAFT_SEED", "41")
        assert parse(["render", "--seed", "3"]).config.seed == 3

    @pytest.mark.parametrize("seed", [2**127, -(2**127) - 1])
    @pytest.mark.parametrize("source", ["flag", "env", "config"])
    def test_seed_outside_128_bits_rejected(self, source, seed, monkeypatch, tmp_path, capsys):
        argv = ["render", "--out-dir", str(tmp_path / "out")]
        if source == "flag":
            argv += ["--seed", str(seed)]
        elif source == "env":
            monkeypatch.setenv("CRAFT_SEED", str(seed))
        else:
            (tmp_path / "seed.json").write_text(json.dumps({"seed": seed}))
            argv += ["--config", str(tmp_path / "seed.json")]
        code, _, err = run(argv, capsys)
        assert code == 2
        assert err.startswith("error:") and "seed" in err and str(seed) in err
        assert not (tmp_path / "out").exists()

    def test_seeds_at_the_128_bit_bounds_accepted(self):
        assert parse(["render", "--seed", str(2**127 - 1)]).config.seed == 2**127 - 1
        assert parse(["render", "--seed", str(-(2**127))]).config.seed == -(2**127)

    def test_sweep_seed_past_128_bits_rejected(self, tmp_path, capsys):
        argv = ["ablate-order", "--seed", str(2**127 - 1), "--sweep-seeds", "2", "--faces", "1",
                "--intensities", "0.5", "--image-size", "32", "--out-dir", str(tmp_path)]
        code, _, err = run(argv, capsys)
        assert code == 2
        assert err.startswith("error:") and str(2**127) in err
        assert not (tmp_path / "order_report.csv").exists()

    def test_order_grid_cell_bound(self, tmp_path, capsys):
        """A grid of MAX_ORDER_CELLS cells parses, and nothing is built; one
        of MAX_ORDER_CELLS + 1 cells (491 x 47 x 13) exits 2 while parsing,
        with every axis within its own bound, and writes nothing."""
        at = ["ablate-order", "--faces", "100", "--intensities", _grid(MAX_INTENSITIES),
              "--sweep-seeds", str(MAX_SWEEP_SEEDS)]
        args = parse(at).args
        assert args.faces * len(args.intensities) * args.sweep_seeds == MAX_ORDER_CELLS
        past = ["ablate-order", "--faces", "491", "--intensities", _grid(47), "--sweep-seeds", "13"]
        code, out, err = run([*past, "--out-dir", str(tmp_path)], capsys)
        assert code == 2
        assert err.startswith("error:") and f"{MAX_ORDER_CELLS + 1} cells" in err
        assert out == "" and not list(tmp_path.iterdir())

    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_attention_score_bound(self, source, tmp_path, capsys):
        """An ablate-attention batch of MAX_ATTENTION_SCORES scores (1024
        faces x 16 seeds x 4 x 16**2) parses, and nothing is built; the
        smallest count past it that the per-flag bounds allow (5419 faces x
        86 seeds x 4 x 3**2 = MAX_ATTENTION_SCORES + 8) exits 2 while
        parsing and writes nothing, whether a flag or a config file sets
        latent_tokens."""
        at = parse(["ablate-attention", "--faces", "1024", "--arm-seeds", "16"])
        assert 4 * at.args.faces * at.args.arm_seeds * at.config.latent_tokens**2 == MAX_ATTENTION_SCORES
        past = ["ablate-attention", "--faces", "5419", "--arm-seeds", "86"]
        if source == "flag":
            past += ["--latent-tokens", "3"]
        else:
            (tmp_path / "cfg.json").write_text(json.dumps({"latent_tokens": 3}))
            past += ["--config", str(tmp_path / "cfg.json")]
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        code, out, err = run([*past, "--out-dir", str(out_dir)], capsys)
        assert code == 2
        assert err.startswith("error:") and f"{MAX_ATTENTION_SCORES + 8} attention scores" in err
        assert out == "" and not list(out_dir.iterdir())

    def test_lora_rank_past_token_dim_rejected(self, tmp_path, capsys):
        """``train --lora`` at a rank above the default token_dim 4 exits 2
        with its error line and writes no file."""
        code, _, err = run(["train", "--lora", "--lora-rank", "5", "--faces", "1", "--train-steps", "1",
                            "--out-dir", str(tmp_path)], capsys)
        assert code == 2
        assert err.startswith("error:") and "lora_rank 5 exceeds token_dim 4" in err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("source", ["flag", "config"])
    @pytest.mark.parametrize("bound", sorted(_RUNTIME_BOUNDS))
    def test_runtime_size_bounds(self, bound, source, tmp_path, capsys):
        """A config at each bound on what sizes the runtime parses (and
        nothing is built); one step past it exits 2 before anything is
        allocated or written, whether a flag or a config file sets it."""
        at, past = _RUNTIME_BOUNDS[bound]

        command = "train" if bound == "lora_rank" else "diffuse"  # diffuse has no --lora-rank

        def argv(values):
            if source == "flag":
                return [command, *(a for k, v in values.items() for a in ("--" + k.replace("_", "-"), str(v)))]
            (tmp_path / "cfg.json").write_text(json.dumps(values))
            return [command, "--config", str(tmp_path / "cfg.json")]

        assert {k: getattr(parse(argv(at)).config, k) for k in at} == at
        code, _, err = run(argv(past) + ["--out-dir", str(tmp_path / "out")], capsys)
        assert code == 2
        assert err.startswith("error:") and bound in err
        assert not (tmp_path / "out").exists()

    def test_non_integer_seed_env_rejected(self, monkeypatch, tmp_path, capsys):
        monkeypatch.setenv("CRAFT_SEED", "abc")
        code, _, err = run(["render", "--out-dir", str(tmp_path)], capsys)
        assert code == 2
        assert err.startswith("error:") and "CRAFT_SEED" in err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("argv, flag", [pytest.param(a, f, id=a[0] + f) for a, f in _integer_options()])
    def test_no_integer_option_is_unbounded(self, argv, flag, tmp_path, capsys):
        """2**200 is refused, before anything is written, by every option
        whose type parses integers, as the parser lists them."""
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        code, _, err = run([*argv, flag, str(2**200), "--out-dir", str(out_dir)], capsys)
        assert code == 2
        assert err.startswith(("error:", "usage:"))
        assert not list(out_dir.iterdir())


def _config_flags(command):
    """The config flags a command takes, as its parser lists them."""
    sub = next(a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return [a.option_strings[0] for a in sub.choices[command]._actions if a.dest in _CONFIG_FLAGS]


# a value other than the default (or the 32 px base) for each config flag of
# render, stylize and attn-map
_OTHER_VALUE = {"--image-size": "40", "--style-intensity": "0.3", "--latent-tokens": "8", "--token-dim": "2"}
_ARTIFACTS = {"render": "face_0.ppm", "stylize": "face_0_styled.ppm", "attn-map": "attn_map_0.csv"}


class TestExecute:
    @pytest.mark.parametrize(
        "command, artifact, flag",
        [pytest.param(c, a, f, id=f"{c}{f}") for c, a in _ARTIFACTS.items() for f in _config_flags(c)],
    )
    def test_every_config_flag_changes_the_artifact(self, command, artifact, flag, tmp_path, capsys):
        """A flag a command takes reaches its artifact's bytes."""
        base = [command, "--seed", "7", "--image-size", "32"]
        assert run([*base, "--out-dir", str(tmp_path / "base")], capsys)[0] == 0
        assert run([*base, flag, _OTHER_VALUE[flag], "--out-dir", str(tmp_path / "other")], capsys)[0] == 0
        assert (tmp_path / "base" / artifact).read_bytes() != (tmp_path / "other" / artifact).read_bytes()

    def test_render_writes_artifacts(self, tmp_path, capsys):
        code, out, _ = run(["render", "--face-id", "2", "--out-dir", str(tmp_path)], capsys)
        assert code == 0
        assert (tmp_path / "face_2.ppm").exists()
        attrs = list(csv.DictReader(open(tmp_path / "face_2_attrs.csv")))
        assert len(attrs) == 6

    def test_header_round_trips(self, tmp_path, capsys):
        code, out, _ = run(["stylize", "--out-dir", str(tmp_path), "--seed", "4"], capsys)
        assert code == 0
        header = next(line for line in out.splitlines() if line.startswith("# config "))
        parsed = PipelineConfig.from_dict(json.loads(header[len("# config "):]))
        assert parsed == parse(["stylize", "--seed", "4"]).config

    def test_ffc_identical_files(self, tmp_path, capsys):
        emb = tmp_path / "emb.csv"
        emb.write_text("0.25,0.5,0.8\n")
        code, out, _ = run(["ffc", str(emb), str(emb)], capsys)
        assert code == 0
        assert out.strip().splitlines()[-1] == "1.0"

    def test_ffc_non_numeric_cell_rejected(self, tmp_path, capsys):
        good = tmp_path / "good.csv"
        good.write_text("0.25,0.5,0.8\n")
        bad = tmp_path / "bad.csv"
        bad.write_text("0.25,abc,0.8\n")
        code, _, err = run(["ffc", str(good), str(bad)], capsys)
        assert code == 2
        assert err.startswith("error:") and "bad.csv" in err

    @pytest.mark.parametrize("cell", ["nan", "inf"])
    def test_ffc_non_finite_cell_rejected(self, cell, tmp_path, capsys):
        good = tmp_path / "good.csv"
        good.write_text("0.25,0.5,0.8\n")
        bad = tmp_path / "bad.csv"
        bad.write_text(f"0.25,{cell},0.8\n")
        code, out, err = run(["ffc", str(good), str(bad)], capsys)
        assert code == 2
        assert err.startswith("error:") and "bad.csv" in err
        assert out.splitlines()[-1].startswith("# config ")

    @pytest.mark.parametrize("cells", ["1e308,1e308", "1e200,1", "1e-170,1e-170"],
                             ids=["overflowing", "lopsided", "underflowing"])
    def test_ffc_of_a_vector_with_itself_at_any_scale(self, cells, tmp_path, capsys):
        """A vector whose squared norm overflows to inf or underflows to 0
        is neither scored nan nor refused as zero: against itself it scores
        1, with no warning."""
        emb = tmp_path / "emb.csv"
        emb.write_text(cells + "\n")
        code, out, err = run(["ffc", str(emb), str(emb)], capsys)
        assert (code, err) == (0, "")
        assert abs(float(out.splitlines()[-1]) - 1.0) <= 1e-15

    def test_ffc_vector_csv_with_no_numeric_cell_rejected(self, tmp_path, capsys):
        """Two such files are an empty CSV, not two zero vectors."""
        empty = tmp_path / "empty.csv"
        empty.write_text(" , \n\n")
        code, _, err = run(["ffc", str(empty), str(empty)], capsys)
        assert code == 2
        assert err.strip() == f"error: {empty}: no numeric cell"

    def test_ffc_field_past_the_csv_limit_rejected(self, tmp_path, capsys):
        """A field longer than the csv module's limit (131072 characters)
        is a malformed vector CSV, not a traceback."""
        good, long = tmp_path / "good.csv", tmp_path / "long.csv"
        good.write_text("0.25,0.5\n")
        long.write_text("0.25," + "5" * 200_000 + "\n")
        code, _, err = run(["ffc", str(good), str(long)], capsys)
        assert code == 2
        assert err.startswith("error:") and "long.csv" in err

    def test_diffuse_deterministic(self, tmp_path, capsys):
        args = [
            "diffuse", "--seed", "5", "--steps", "10", "--window", "3",
            "--image-size", "32", "--out-dir",
        ]
        digests = []
        for sub in ("a", "b"):
            out_dir = tmp_path / sub
            assert run(args + [str(out_dir)], capsys)[0] == 0
            digests.append(hashlib.sha256((out_dir / "face_0_diffused.ppm").read_bytes()).hexdigest())
        assert digests[0] == digests[1]

    @pytest.mark.parametrize("argv", [
        ["diffuse"],
        ["ablate-attention", "--faces", "1", "--arm-seeds", "1", "--train-steps", "1"],
    ])
    def test_non_finite_sampling_exits_2_and_writes_nothing(self, argv, tmp_path, capsys):
        """A guidance scale that overflows the sampler is an error, on every
        command that samples, and leaves no artifact behind."""
        out_dir = tmp_path / "out"
        argv = argv + [
            "--guidance-scale", "1e308", "--steps", "4", "--window", "1", "--image-size", "32",
            "--out-dir", str(out_dir),
        ]
        code, _, err = run(argv, capsys)
        assert code == 2
        assert err.startswith("error:") and "non-finite" in err
        assert list(out_dir.iterdir()) == []

    def test_overflowing_attention_map_exits_2_and_writes_nothing(self, tmp_path, capsys):
        """At a guidance scale whose one step leaves the latents finite but
        so large that their attention scores overflow, ``ablate-attention``
        exits 2 with an ``error:`` line naming the scale, warns of nothing
        and writes no report."""
        out_dir = tmp_path / "out"
        argv = ["ablate-attention", "--faces", "2", "--arm-seeds", "1", "--train-steps", "1", "--image-size", "32",
                "--steps", "1", "--window", "0", "--guidance-scale", "1e300", "--out-dir", str(out_dir)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, _, err = run(argv, capsys)
        assert code == 2
        assert err.startswith("error:") and "non-finite" in err and "guidance scale 1e+300" in err
        assert list(out_dir.iterdir()) == []

    def test_prompt_with_no_utf8_form_exits_2_and_writes_nothing(self, tmp_path, capsys):
        """Undecodable argv bytes reach the prompt as a lone surrogate; the
        prompt is refused with an ``error:`` line, not a traceback."""
        out_dir = tmp_path / "out"
        argv = ["diffuse", "--steps", "1", "--window", "0", "--image-size", "32", "--prompt", "\udcff",
                "--out-dir", str(out_dir)]
        code, _, err = run(argv, capsys)
        assert code == 2
        assert err.startswith("error:") and "prompt" in err
        assert list(out_dir.iterdir()) == []

    @pytest.mark.parametrize("prompt", ["", "\udcff"], ids=["empty", "no-utf8"])
    def test_refused_prompt_exits_2_before_any_runtime_or_stylize(self, prompt, tmp_path, capsys, monkeypatch):
        """``diffuse`` embeds its prompt before it builds the runtime or
        stylizes the face, so a refused prompt costs neither. The runtime
        cache is cleared first, so a codec left by another test hides no
        build."""
        pl._build_runtime.cache_clear()
        calls = dict.fromkeys(("make_codec", "graffiti_stylize"), 0)

        def counted(name, real):
            def call(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)
            return call

        for name in calls:
            monkeypatch.setattr(pl, name, counted(name, getattr(pl, name)))
        out_dir = tmp_path / "out"
        argv = ["diffuse", "--steps", "2", "--window", "1", "--image-size", "32", "--prompt", prompt,
                "--out-dir", str(out_dir)]
        code, _, err = run(argv, capsys)
        assert code == 2
        assert err.startswith("error:") and "prompt" in err
        assert not list(out_dir.glob("*.ppm"))
        assert calls == {"make_codec": 0, "graffiti_stylize": 0}

    def test_ablate_order_small(self, tmp_path, capsys):
        code, out, _ = run(
            [
                "ablate-order", "--faces", "3", "--intensities", "0.4,0.9",
                "--seed", "6", "--out-dir", str(tmp_path),
            ],
            capsys,
        )
        assert code == 0
        assert "win_rate=1.0" in out
        rows = list(csv.DictReader(open(tmp_path / "order_report.csv")))
        assert len(rows) == 3 * 2 * 2
        assert set(r["order"] for r in rows) == {"PS", "SP"}

    def test_attn_map_row_stochastic(self, tmp_path, capsys):
        code, _, _ = run(
            ["attn-map", "--with-identity", "--out-dir", str(tmp_path), "--seed", "2"],
            capsys,
        )
        assert code == 0
        rows = [[float(v) for v in line] for line in csv.reader(open(tmp_path / "attn_map_0.csv"))]
        m = np.array(rows)
        assert m.shape == (16, 16)
        assert np.max(np.abs(m.sum(axis=1) - 1.0)) <= 1e-12

    def test_train_lora_writes_loadable_adapters(self, tmp_path, capsys):
        code, _, _ = run(
            [
                "train", "--lora", "--faces", "2", "--train-steps", "2",
                "--seed", "7", "--out-dir", str(tmp_path),
            ],
            capsys,
        )
        assert code == 0
        adapters = load_adapters(tmp_path / "adapters.csv")
        assert set(adapters) == {"q", "k", "v"}
        assert adapters["q"].rank == 4

    def test_diverging_training_prints_only_the_error(self, tmp_path):
        """A run whose weights overflow exits 2 with the ``error:`` line alone
        on stderr (no numpy warning before it) and writes nothing. It runs
        in a subprocess, where warnings reach stderr as they do for a user."""
        src = str(Path(craftfaces.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
        argv = ["train", "--lora", "--lora-alpha", "1e30", "--train-steps", "50", "--out-dir", str(tmp_path)]
        cmd = [sys.executable, "-m", "craftfaces.cli", *argv]
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True)
        assert proc.returncode == 2
        assert proc.stderr.startswith("error:") and proc.stderr.count("\n") == 1, proc.stderr
        assert list(tmp_path.iterdir()) == []


def _options():
    """Per command: each optional flag (other than ``--help`` and
    ``--config``) with whether it takes a value, and its positional count,
    read from the parser, so a new flag is fuzzed without editing the test."""
    sub = next(a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return {
        name: (
            [(a.option_strings[0], a.nargs != 0) for a in p._actions
             if a.option_strings and not isinstance(a, argparse._HelpAction) and a.dest != "config"],
            sum(1 for a in p._actions if not a.option_strings),
        )
        for name, p in sub.choices.items()
    }


_OPTIONS = _options()
# each bound a flag or config value is checked against, for limit - 1, limit and limit + 1
_LIMITS = (0, 1, 32, MAX_FACES, MAX_JOBS, MAX_SWEEP_SEEDS, MAX_INTENSITIES, MAX_ARM_SEEDS, MAX_TRAIN_STEPS,
           MAX_STEPS, MAX_COND_DIM, MAX_TOKEN_DIM, MAX_LATENT_TOKENS, MAX_LORA_RANK, 2**127)
_MALFORMED = st.sampled_from(
    ["", "nan", "-nan", "inf", "-0", "1e309", "-1e309", "0x10", "1_0", "0.5,0.5", "1,", "é", "\u6f22\u5b57", " "]
    + [str(n) for limit in _LIMITS for n in (limit - 1, limit, limit + 1)]
)
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=8,
)
# a config file: random bytes, random JSON, or an object of config keys with malformed, limit or random values
_CONFIG_FILES = st.one_of(
    st.binary(max_size=64),
    _JSON.map(lambda v: json.dumps(v).encode()),
    st.dictionaries(st.sampled_from(sorted(PipelineConfig.__dataclass_fields__)),
                    _MALFORMED.map(lambda text: int(text) if text.lstrip("-").isdigit() else text) | _JSON,
                    max_size=4).map(lambda d: json.dumps(d).encode()),
)


@st.composite
def _argvs(draw):
    """A command, some of its flags with malformed values, its positionals
    and maybe a config file's bytes."""
    command = draw(st.sampled_from(sorted(_OPTIONS)))
    flags, positionals = _OPTIONS[command]
    argv = [command]
    for flag, takes_value in draw(st.lists(st.sampled_from(flags), max_size=4, unique=True)):
        argv += [flag, draw(_MALFORMED)] if takes_value else [flag]
    argv += [draw(_MALFORMED) for _ in range(positionals)]
    return argv, draw(st.none() | _CONFIG_FILES)


class TestExitCodeFuzz:
    """Generated malformed input ends in a documented exit, never an
    uncaught exception (ROADMAP item 8): parse returns or raises
    CraftError or SystemExit(2), and ``ffc`` exits 0 with a finite number
    or 2 with an ``error:`` line."""

    @settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(case=_argvs())
    def test_parse_returns_or_refuses(self, case, tmp_path_factory):
        argv, config = case
        if config is not None:
            path = tmp_path_factory.getbasetemp() / "fuzz-config.json"
            path.write_bytes(config)
            argv += ["--config", str(path)]
        try:
            assert isinstance(parse(argv), Command)
        except CraftError:
            pass
        except SystemExit as exc:
            assert exc.code == 2, argv

    _finite = st.floats(allow_nan=False, allow_infinity=False)
    _vector_csv = st.one_of(
        st.binary(max_size=48),
        st.lists(_finite | _finite.map(lambda x: x * 1e-300) | st.sampled_from([1e308, -1e308, 5e-324, 1e-170]),
                 min_size=1, max_size=6).map(lambda xs: ",".join(map(repr, xs)).encode()),
    )

    @settings(max_examples=100, deadline=None)
    @given(files=st.tuples(_vector_csv, _vector_csv))
    def test_ffc_exits_0_with_a_finite_number_or_2_with_an_error(self, files, tmp_path_factory):
        paths = []
        for i, data in enumerate(files):
            paths.append(tmp_path_factory.getbasetemp() / f"fuzz-emb{i}.csv")
            paths[-1].write_bytes(data)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["ffc", *map(str, paths)])
        assert code in (0, 2), files
        if code == 2:
            assert err.getvalue().startswith("error:"), files
        else:
            assert err.getvalue() == "" and np.isfinite(float(out.getvalue().splitlines()[-1])), files


class TestAtomicWrite:
    def test_failed_write_leaves_nothing(self, tmp_path):
        target = tmp_path / "out.bin"

        def boom(path):
            with open(path, "w") as fh:
                fh.write("partial")
            raise OSError("disk on fire")

        with pytest.raises(OSError):
            _atomic_write(target, boom)
        assert not target.exists()
        assert list(tmp_path.iterdir()) == []

    def test_success_replaces(self, tmp_path):
        target = tmp_path / "out.txt"
        _atomic_write(target, lambda p: open(p, "w").write("done"))
        assert target.read_text() == "done"


def test_import_loads_no_process_pool():
    """Every command imports the CLI, and only ``ablate-order --jobs`` above 1
    starts workers, so the pool's modules are imported there alone: a fresh
    interpreter importing the CLI has loaded no ``multiprocessing``."""
    src = str(Path(craftfaces.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    code = ("import sys, craftfaces.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'multiprocessing' "
            "or m == 'concurrent.futures.process'))")
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
