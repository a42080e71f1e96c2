import argparse
import json
import os
import shutil
import signal
import struct
import subprocess
import sys
import time

import numpy as np
import pytest

from ssdiffmri import cli, pipeline, tensorio
from ssdiffmri.cli import _TRAIN_FLAGS, _flag_config, build_parser, run
from ssdiffmri.losses import LossReport
from ssdiffmri.nets import Denoiser, load_checkpoint
from ssdiffmri.pipeline import TrainConfig, build_models


def invoke(*argv):
    return run(list(argv))


# flags that a command does not take, though another command does
_UNTAKEN_FLAGS = [("eval", "--force"), ("stats", "--force"), ("zerofill", "--seed", "1"),
                  ("stats", "--seed", "1"), ("sweep", "--rho", "0.5"),
                  ("sweep", "--rho", "1.5")]


class Recording(argparse.Namespace):
    """A namespace that notes the name of every attribute read from it."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self._read = set()

    def __getattribute__(self, name):
        if not name.startswith("_"):
            object.__getattribute__(self, "_read").add(name)
        return object.__getattribute__(self, name)


def assert_same_checkpoint(a, b):
    names = sorted(os.listdir(a))
    assert names == sorted(os.listdir(b)) and len(names) > 0
    for name in names:
        assert (a / name).read_bytes() == (b / name).read_bytes(), name


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    d = tmp_path_factory.mktemp("data") / "phantoms"
    assert invoke("phantom", "--n", "6", "--size", "32", "--coils", "2",
                  "--seed", "7", "--out", str(d)) == 0
    return d


@pytest.fixture(scope="module")
def undersampled(dataset, tmp_path_factory):
    u = tmp_path_factory.mktemp("data") / "under"
    assert invoke("undersample", "--data", str(dataset), "--R", "4",
                  "--seed", "3", "--out", str(u)) == 0
    return u


class TestPhantom:
    def test_outputs_exist(self, dataset):
        man = tensorio.DatasetManifest.from_json((dataset / "manifest.json").read_text())
        assert len(man.slices) == 6
        man.validate(dataset)

    def test_byte_identical_given_seed(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for d in (a, b):
            assert invoke("phantom", "--n", "2", "--size", "32", "--coils", "1",
                          "--seed", "5", "--out", str(d)) == 0
        fa = sorted(os.listdir(a / "slices"))
        assert fa == sorted(os.listdir(b / "slices"))
        for f in fa:
            assert (a / "slices" / f).read_bytes() == (b / "slices" / f).read_bytes()
        assert (a / "sens.cksp").read_bytes() == (b / "sens.cksp").read_bytes()

    def test_small_size_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            invoke("phantom", "--n", "1", "--size", "8", "--out", str(tmp_path / "x"))
        assert exc.value.code == 2
        assert not (tmp_path / "x").exists()

    def test_refuses_nonempty_without_force(self, tmp_path):
        d = tmp_path / "d"
        assert invoke("phantom", "--n", "1", "--size", "32", "--out", str(d)) == 0
        assert invoke("phantom", "--n", "1", "--size", "32", "--out", str(d)) == 1
        assert invoke("phantom", "--n", "1", "--size", "32", "--out", str(d),
                      "--force") == 0

    def test_missing_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            invoke()
        assert exc.value.code == 2

    def test_bad_flag_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            invoke("phantom", "--bogus", "3")
        assert exc.value.code == 2


class TestUndersample:
    def test_outputs(self, undersampled):
        with open(undersampled / "meta.json") as f:
            meta = json.load(f)
        assert meta["R"] == 4
        masks = sorted(os.listdir(undersampled / "masks"))
        ks = sorted(os.listdir(undersampled / "kspace"))
        assert len(masks) == len(ks) == 6

    def test_center_always_on(self, undersampled):
        from ssdiffmri.masks import SamplingMask
        for f in os.listdir(undersampled / "masks"):
            mask = SamplingMask.from_json((undersampled / "masks" / f).read_text())
            assert mask.sampled[slice(*mask.center)].all()

    def test_r1_equals_full_kspace(self, dataset, tmp_path):
        u = tmp_path / "full"
        assert invoke("undersample", "--data", str(dataset), "--R", "1",
                      "--out", str(u)) == 0
        man = tensorio.DatasetManifest.from_json((dataset / "manifest.json").read_text())
        sens = tensorio.read_tensor(dataset / "sens.cksp")
        from ssdiffmri.kspace import EncodingOperator, encode
        from ssdiffmri.masks import SamplingMask
        ph = tensorio.read_tensor(dataset / man.slices[0])
        mask = SamplingMask.from_json((u / "masks" / "slice_0000.mask.json").read_text())
        op = EncodingOperator(sens, mask, man.rows, man.cols)
        stored = tensorio.read_tensor(u / "kspace" / "slice_0000.cksp")
        np.testing.assert_allclose(stored, encode(ph, op), atol=1e-6)

    def test_deterministic(self, dataset, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for d in (a, b):
            assert invoke("undersample", "--data", str(dataset), "--R", "2",
                          "--seed", "9", "--out", str(d)) == 0
        for sub in ("masks", "kspace"):
            for f in os.listdir(a / sub):
                assert (a / sub / f).read_bytes() == (b / sub / f).read_bytes()

    def test_missing_dataset(self, tmp_path):
        assert invoke("undersample", "--data", str(tmp_path / "nope"),
                      "--out", str(tmp_path / "o")) == 1

    @pytest.mark.parametrize("R", ["4", "1"], ids=lambda R: f"R{R}")
    def test_noise_only_on_acquired_columns(self, dataset, tmp_path, R):
        # acquired columns hold the encoded slice plus its noise draw, bit for
        # bit at file precision; every other column is exactly zero
        from ssdiffmri.kspace import EncodingOperator, add_measurement_noise, encode
        from ssdiffmri.masks import SamplingMask
        u = tmp_path / "noisy"
        assert invoke("undersample", "--data", str(dataset), "--R", R, "--seed", "5",
                      "--noise-std", "0.01", "--out", str(u)) == 0
        man = tensorio.DatasetManifest.from_json((dataset / "manifest.json").read_text())
        sens = tensorio.read_tensor(dataset / "sens.cksp")
        for i, rel in enumerate(man.slices):
            mask = SamplingMask.from_json((u / "masks" / f"slice_{i:04d}.mask.json")
                                          .read_text())
            stored = tensorio.read_tensor(u / "kspace" / f"slice_{i:04d}.cksp")
            ks = encode(tensorio.read_tensor(dataset / rel),
                        EncodingOperator(sens, mask, man.rows, man.cols))
            noisy = add_measurement_noise(ks, 0.01, seed=5 + i).astype(np.complex64)
            assert np.array_equal(stored[..., mask.sampled], noisy[..., mask.sampled])
            assert not np.any(stored[..., ~mask.sampled])
            assert mask.sampled.all() == (R == "1")


@pytest.fixture(scope="module")
def trained(undersampled, tmp_path_factory):
    r = tmp_path_factory.mktemp("run") / "run"
    assert invoke("train", "--data", str(undersampled), "--out", str(r),
                  "--rho", "0.5", "--epochs", "2", "--max-steps", "6",
                  "--hidden", "6", "--disc-width", "4", "--batch-size", "2",
                  "--seed", "11") == 0
    return r


class TestTrain:
    def test_run_directory_layout(self, trained):
        assert (trained / "config.json").exists()
        assert (trained / "checkpoints" / "final" / "denoiser.index.json").exists()
        assert os.listdir(trained / "checkpoints") == ["final"]
        lines = (trained / "logs" / "metrics.csv").read_text().strip().split("\n")
        assert lines[0] == "step,slice,t,l_recon,l_disc,l_gen,l_final"
        assert len(lines) == 7  # header + 6 steps

    def test_config_snapshot_resolves(self, trained):
        with open(trained / "config.json") as f:
            cfg = json.load(f)
        assert cfg["rho"] == 0.5
        assert cfg["max_steps"] == 6

    def test_flag_defaults_are_train_config_defaults(self):
        args = build_parser().parse_args(["train", "--data", "d"])
        cfg = _flag_config(args, ("seed", *_TRAIN_FLAGS))
        assert cfg == TrainConfig()

    def test_rho_out_of_range_usage(self, undersampled, tmp_path):
        with pytest.raises(SystemExit) as exc:
            invoke("train", "--data", str(undersampled), "--rho", "1.5",
                   "--out", str(tmp_path / "r"))
        assert exc.value.code == 2
        assert not (tmp_path / "r").exists()

    def test_resume_reproduces_next_step(self, undersampled, tmp_path):
        # train 3 steps, checkpoint; resuming must replay step 4 exactly
        a = tmp_path / "a"
        assert invoke("train", "--data", str(undersampled), "--out", str(a),
                      "--max-steps", "4", "--hidden", "6", "--disc-width", "4",
                      "--batch-size", "2", "--seed", "13", "--epochs", "2") == 0
        b = tmp_path / "b"
        assert invoke("train", "--data", str(undersampled), "--out", str(b),
                      "--max-steps", "3", "--hidden", "6", "--disc-width", "4",
                      "--batch-size", "2", "--seed", "13", "--epochs", "2") == 0
        c = tmp_path / "c"
        assert invoke("train", "--data", str(undersampled), "--out", str(c),
                      "--resume", str(b / "checkpoints" / "final"),
                      "--max-steps", "4", "--hidden", "6", "--disc-width", "4",
                      "--batch-size", "2", "--seed", "13", "--epochs", "2") == 0
        last_a = (a / "logs" / "metrics.csv").read_text().strip().split("\n")[-1]
        last_c = (c / "logs" / "metrics.csv").read_text().strip().split("\n")[-1]
        assert last_a == last_c
        # float32 states round-trip exactly, so both nets' params, Adam
        # moments and buffers match the uninterrupted run byte for byte
        assert_same_checkpoint(a / "checkpoints" / "final", c / "checkpoints" / "final")

    def test_resumed_log_starts_with_the_header(self, undersampled, tmp_path):
        flags = ("--data", str(undersampled), "--hidden", "4", "--disc-width", "4",
                 "--batch-size", "2", "--seed", "13")
        a = tmp_path / "a"
        assert invoke("train", *flags, "--out", str(a), "--max-steps", "1") == 0
        b = tmp_path / "b"
        assert invoke("train", *flags, "--out", str(b), "--max-steps", "2",
                      "--resume", str(a / "checkpoints" / "final")) == 0
        lines = (b / "logs" / "metrics.csv").read_text().strip().split("\n")
        assert lines[0] == LossReport.csv_header()
        assert len(lines) == 2 and lines[1].startswith("1,")  # the second step

    def test_resume_refuses_mismatched_step_counts(self, undersampled, tmp_path, capsys):
        flags = ("--hidden", "6", "--disc-width", "4", "--batch-size", "2",
                 "--seed", "13", "--epochs", "2")
        a = tmp_path / "a"
        assert invoke("train", "--data", str(undersampled), "--out", str(a),
                      "--max-steps", "2", *flags) == 0
        ckpt = a / "checkpoints" / "final"
        index = ckpt / "disc.index.json"
        meta = json.loads(index.read_text())
        meta["step"] = 1
        index.write_text(json.dumps(meta))
        capsys.readouterr()
        out = tmp_path / "b"
        assert invoke("train", "--data", str(undersampled), "--out", str(out),
                      "--resume", str(ckpt), "--max-steps", "4", *flags) == 1
        err = capsys.readouterr().err
        assert "denoiser has 2 steps" in err and "discriminator has 1" in err
        assert not out.exists()

    def test_failed_step_leaves_last_good_at_last_completed_step(
            self, undersampled, tmp_path, monkeypatch):
        # a NaN in the denoiser's gradient at the third step aborts the run
        # after the discriminator's update; the step is undone as a whole
        config = tmp_path / "every_step.json"
        config.write_text(json.dumps({"checkpoint_every": 1}))
        flags = ("--data", str(undersampled), "--config", str(config), "--max-steps", "4",
                 "--hidden", "6", "--disc-width", "4", "--batch-size", "2", "--seed", "13")
        full = tmp_path / "full"
        assert invoke("train", *flags, "--out", str(full)) == 0
        backward, calls = Denoiser.backward, []

        def nan_at_third_step(self, upstream):
            backward(self, upstream)
            calls.append(None)
            if len(calls) == 3:
                self.state.grads[0] = np.nan

        monkeypatch.setattr(Denoiser, "backward", nan_at_third_step)
        failed = tmp_path / "failed"
        assert invoke("train", *flags, "--out", str(failed)) == 1
        monkeypatch.undo()
        ckpts = failed / "checkpoints"
        assert sorted(os.listdir(ckpts)) == ["last_good", "step_000001", "step_000002"]
        assert_same_checkpoint(ckpts / "step_000002", ckpts / "last_good")
        resumed = tmp_path / "resumed"
        assert invoke("train", *flags, "--resume", str(ckpts / "last_good"),
                      "--out", str(resumed)) == 0
        assert_same_checkpoint(full / "checkpoints" / "final",
                               resumed / "checkpoints" / "final")

    def test_infinite_loss_leaves_last_good_at_last_completed_step(self, tmp_path,
                                                                   monkeypatch, capsys):
        under = tmp_path / "under"
        assert invoke("phantom", "--n", "4", "--size", "16", "--coils", "2",
                      "--seed", "7", "--out", str(tmp_path / "ph")) == 0
        assert invoke("undersample", "--data", str(tmp_path / "ph"), "--R", "4",
                      "--seed", "3", "--out", str(under)) == 0
        flags = ("--data", str(under), "--hidden", "4", "--disc-width", "2",
                 "--batch-size", "2", "--seed", "13", "--epochs", "2")
        assert invoke("train", *flags, "--max-steps", "2", "--out", str(tmp_path / "ok")) == 0
        loss_and_grad, calls = pipeline.recon_loss_and_grad, []

        def infinite_at_third_step(*args):
            loss, grad = loss_and_grad(*args)
            calls.append(None)
            return (np.full_like(loss, np.inf) if len(calls) == 3 else loss), grad

        monkeypatch.setattr(pipeline, "recon_loss_and_grad", infinite_at_third_step)
        failed = tmp_path / "failed"
        assert invoke("train", *flags, "--max-steps", "4", "--out", str(failed)) == 1
        assert "non-finite loss at step 2" in capsys.readouterr().err
        last_good = failed / "checkpoints" / "last_good"
        assert json.loads((last_good / "denoiser.index.json").read_text())["step"] == 2
        assert_same_checkpoint(tmp_path / "ok" / "checkpoints" / "final", last_good)

    def test_meta_r_out_of_range_exits_1_naming_file(self, dataset, undersampled,
                                                     tmp_path, capsys):
        under = tmp_path / "under"
        shutil.copytree(undersampled, under)
        meta = json.loads((under / "meta.json").read_text())
        (under / "meta.json").write_text(json.dumps({**meta, "R": -1}))
        assert invoke("train", "--data", str(under), "--out", str(tmp_path / "r"),
                      "--max-steps", "1") == 1
        err = capsys.readouterr().err
        assert "meta.json" in err and "R must be positive" in err

    @pytest.mark.parametrize("values", [
        {"hidden": "24"}, {"hidden": 2.5}, {"seed": "x"}, {"disc_width": 0},
        {"dtype": "float16"}, {"checkpoint_every": -1}, {"max_steps": -1},
        {"t_start": 1000}, {"rho": 1.5}, {"lr": True}, {"beta_1": 0.5},
    ], ids=lambda v: "-".join(f"{k}={v[k]}" for k in v))
    def test_bad_config_value_exits_1_naming_file(self, undersampled, tmp_path, capsys,
                                                 values):
        path = tmp_path / "overrides.json"
        path.write_text(json.dumps(values))
        out = tmp_path / "r"
        assert invoke("train", "--data", str(undersampled), "--config", str(path),
                      "--out", str(out), "--max-steps", "1") == 1
        err = capsys.readouterr().err
        assert "overrides.json" in err and next(iter(values)) in err
        assert not out.exists()


@pytest.fixture(scope="module")
def recon_dirs(dataset, undersampled, trained, tmp_path_factory):
    rec = tmp_path_factory.mktemp("rec") / "model"
    zf = tmp_path_factory.mktemp("rec") / "zf"
    assert invoke("recon", "--data", str(undersampled), "--run", str(trained),
                  "--out", str(rec), "--seed", "2") == 0
    assert invoke("zerofill", "--data", str(undersampled), "--out", str(zf)) == 0
    return rec, zf


class TestReconEvalStats:
    def test_recon_outputs(self, recon_dirs):
        rec, zf = recon_dirs
        assert len(os.listdir(rec / "recons")) == 6
        assert len(os.listdir(zf / "recons")) == 6

    def test_eval_identity_gives_perfect_metrics(self, dataset, tmp_path):
        fake = tmp_path / "identity"
        os.makedirs(fake / "recons")
        man = tensorio.DatasetManifest.from_json((dataset / "manifest.json").read_text())
        for i, rel in enumerate(man.slices):
            t = tensorio.read_tensor(dataset / rel)
            tensorio.write_tensor(t, fake / "recons" / f"slice_{i:04d}.cksp")
        out = tmp_path / "ev"
        assert invoke("eval", "--recon", str(fake), "--truth", str(dataset),
                      "--method", "ident", "--n-boot", "100",
                      "--out", str(out)) == 0
        rows = (out / "ident.metrics.csv").read_text().strip().split("\n")[1:]
        for row in rows:
            _, _, nm, ps, ss = row.split(",")
            assert float(nm) == 0.0
            assert float(ss) == pytest.approx(1.0, abs=1e-12)

    def test_eval_and_stats_pipeline(self, dataset, recon_dirs, tmp_path):
        rec, zf = recon_dirs
        ev = tmp_path / "ev"
        assert invoke("eval", "--recon", str(rec), "--truth", str(dataset),
                      "--method", "model", "--n-boot", "200", "--out", str(ev)) == 0
        assert invoke("eval", "--recon", str(zf), "--truth", str(dataset),
                      "--method", "zf", "--n-boot", "200", "--out", str(ev)) == 0
        st = tmp_path / "st"
        assert invoke("stats", str(ev / "model.metrics.csv"),
                      str(ev / "zf.metrics.csv"), "--out", str(st)) == 0
        with open(st / "tests.json") as f:
            res = json.load(f)
        for metric in ("nmse", "psnr", "ssim"):
            assert 0.0 <= res[metric]["anova_p"] <= 1.0
            assert len(res[metric]["pairwise"]) == 1

    def test_stats_identical_reports_p_one(self, dataset, recon_dirs, tmp_path):
        rec, _ = recon_dirs
        ev = tmp_path / "ev"
        for m in ("m1", "m2", "m3"):
            assert invoke("eval", "--recon", str(rec), "--truth", str(dataset),
                          "--method", m, "--n-boot", "100", "--out", str(ev)) == 0
        st = tmp_path / "st"
        assert invoke("stats", *(str(ev / f"{m}.metrics.csv") for m in ("m1", "m2", "m3")),
                      "--out", str(st)) == 0
        with open(st / "tests.json") as f:
            res = json.load(f)
        for metric in ("nmse", "psnr", "ssim"):
            assert res[metric]["anova_p"] == 1.0
            assert all(p["p"] == 1.0 for p in res[metric]["pairwise"])

    def test_stats_mismatched_slices_lists_difference(self, dataset, recon_dirs,
                                                      tmp_path):
        rec, _ = recon_dirs
        ev = tmp_path / "ev"
        assert invoke("eval", "--recon", str(rec), "--truth", str(dataset),
                      "--method", "whole", "--n-boot", "100", "--out", str(ev)) == 0
        # drop one slice from a copy of the report
        lines = (ev / "whole.metrics.csv").read_text().strip().split("\n")
        (ev / "partial.metrics.csv").write_text(
            "\n".join(lines[:-1]).replace("whole", "part") + "\n")
        assert invoke("stats", str(ev / "whole.metrics.csv"),
                      str(ev / "partial.metrics.csv"), "--out", str(tmp_path / "s")) == 1


class TestBadInput:
    @pytest.mark.parametrize("corrupt", [lambda b: b"not a tensor", lambda b: b[:-8]],
                             ids=["garbage", "truncated"])
    def test_corrupt_cksp_exits_1_naming_file(self, dataset, tmp_path, capsys, corrupt):
        data = tmp_path / "data"
        shutil.copytree(dataset, data)
        target = data / "slices" / "slice_0002.cksp"
        target.write_bytes(corrupt(target.read_bytes()))
        assert invoke("undersample", "--data", str(data),
                      "--out", str(tmp_path / "u")) == 1
        assert "slice_0002.cksp" in capsys.readouterr().err

    @pytest.mark.parametrize("header", [b"{}", b'{"shape": 5}', b"[32, 32]",
                                        b'{"shape": null}', b'{"shape": ["x"]}'])
    def test_malformed_header_exits_1_naming_file(self, dataset, tmp_path, capsys, header):
        data = tmp_path / "data"
        shutil.copytree(dataset, data)
        target = data / "slices" / "slice_0001.cksp"
        target.write_bytes(b"CKSP" + struct.pack("<I", len(header)) + header
                           + bytes(32 * 32 * 8))
        assert invoke("undersample", "--data", str(data),
                      "--out", str(tmp_path / "u")) == 1
        assert "slice_0001.cksp" in capsys.readouterr().err

    def test_unknown_config_key_exits_1_naming_key(self, undersampled, tmp_path, capsys):
        path = tmp_path / "overrides.json"
        path.write_text(json.dumps({"bogus_knob": 3}))
        assert invoke("train", "--data", str(undersampled), "--config", str(path),
                      "--out", str(tmp_path / "r"), "--max-steps", "1") == 1
        err = capsys.readouterr().err
        assert "bogus_knob" in err and "overrides.json" in err

    def test_config_r_other_than_the_data_exits_1_before_output(self, undersampled,
                                                                tmp_path, capsys):
        # the data were sampled at meta.json's R, so a run cannot record another
        path = tmp_path / "overrides.json"
        path.write_text(json.dumps({"R": 8}))
        assert invoke("train", "--data", str(undersampled), "--config", str(path),
                      "--out", str(tmp_path / "r"), "--max-steps", "1") == 1
        err = capsys.readouterr().err
        assert "overrides.json: R 8 differs from the data's R 4.0" in err
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize("target,edit", [
        ("meta.json", lambda d: d.pop("dataset")),
        ("meta.json", lambda d: d.update(R="four")),
        ("manifest.json", lambda d: d.update(bogus=1)),
        ("manifest.json", lambda d: d.update(slices=5)),
        ("slice_0003.mask.json", lambda d: d.pop("sampled")),
        ("slice_0003.mask.json", lambda d: d["sampled"].append(d["width"])),
        ("slice_0003.mask.json", lambda d: d["sampled"].append(1.5)),
        ("slice_0003.mask.json", lambda d: d["sampled"].append(-1)),
    ], ids=["meta-no-dataset", "meta-r-not-number", "manifest-unknown-key",
            "manifest-slices-not-list", "mask-no-sampled",
            "mask-column-at-width", "mask-column-not-integer", "mask-column-negative"])
    def test_malformed_sidecar_exits_1_naming_file(self, dataset, undersampled, tmp_path,
                                                   capsys, target, edit):
        data, under = tmp_path / "data", tmp_path / "under"
        shutil.copytree(dataset, data)
        shutil.copytree(undersampled, under)
        meta = json.loads((under / "meta.json").read_text())
        (under / "meta.json").write_text(json.dumps({**meta, "dataset": str(data)}))
        path = {"meta.json": under / "meta.json", "manifest.json": data / "manifest.json"
                }.get(target, under / "masks" / target)
        content = json.loads(path.read_text())
        edit(content)
        path.write_text(json.dumps(content))
        assert invoke("zerofill", "--data", str(under), "--out", str(tmp_path / "zf")) == 1
        assert target in capsys.readouterr().err

    @pytest.mark.parametrize("column", ["slice", "psnr"])
    def test_stats_csv_without_column_exits_1_naming_file(self, dataset, recon_dirs,
                                                           tmp_path, capsys, column):
        ev = tmp_path / "ev"
        for m in ("a", "b"):
            assert invoke("eval", "--recon", str(recon_dirs[0]), "--truth", str(dataset),
                          "--method", m, "--n-boot", "50", "--out", str(ev)) == 0
        lines = [line.split(",") for line in
                 (ev / "b.metrics.csv").read_text().strip().split("\n")]
        drop = lines[0].index(column)
        (ev / "b.metrics.csv").write_text(
            "\n".join(",".join(f[:drop] + f[drop + 1:]) for f in lines) + "\n")
        assert invoke("stats", str(ev / "a.metrics.csv"), str(ev / "b.metrics.csv"),
                      "--out", str(tmp_path / "s")) == 1
        assert "b.metrics.csv" in capsys.readouterr().err

    def _old_run(self, trained, tmp_path, **retired):
        run_dir = tmp_path / "old_run"
        shutil.copytree(trained, run_dir)
        cfg = json.loads((run_dir / "config.json").read_text())
        (run_dir / "config.json").write_text(json.dumps({**cfg, **retired}))
        return run_dir

    def test_old_run_config_at_supported_values_reconstructs(
            self, undersampled, trained, recon_dirs, tmp_path):
        run_dir = self._old_run(trained, tmp_path, dc_mode="measured_outside",
                                rho_convention="fraction_of_acquired",
                                center_fraction=0.04)
        out = tmp_path / "rec"
        assert invoke("recon", "--data", str(undersampled), "--run", str(run_dir),
                      "--out", str(out), "--seed", "2") == 0
        rec, _ = recon_dirs
        for name in os.listdir(rec / "recons"):
            assert (out / "recons" / name).read_bytes() == (rec / "recons" / name).read_bytes()

    @pytest.mark.parametrize("key,value", [("dc_mode", "literal"),
                                           ("rho_convention", "train_to_loss"),
                                           ("center_fraction", 0.08)])
    def test_old_run_config_other_value_exits_1(self, undersampled, trained, tmp_path,
                                                capsys, key, value):
        run_dir = self._old_run(trained, tmp_path, **{key: value})
        assert invoke("recon", "--data", str(undersampled), "--run", str(run_dir),
                      "--out", str(tmp_path / "rec")) == 1
        assert key in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["recon", "resume"])
    @pytest.mark.parametrize("edit,message", [
        (lambda index: index.update(step=5),
         "denoiser has 6 steps but the discriminator has 5"),
        (lambda index: index.pop("step"), "disc.index.json"),
    ], ids=["mismatched-steps", "index-without-step"])
    def test_bad_checkpoint_index_exits_1(self, undersampled, trained, tmp_path, capsys,
                                          command, edit, message):
        run_dir = tmp_path / "run"
        shutil.copytree(trained, run_dir)
        path = run_dir / "checkpoints" / "final" / "disc.index.json"
        index = json.loads(path.read_text())
        edit(index)
        path.write_text(json.dumps(index))
        argv = {"recon": ("recon", "--run", str(run_dir)),
                "resume": ("train", "--resume", str(path.parent), "--hidden", "6",
                           "--disc-width", "4", "--seed", "11")}[command]
        assert invoke(*argv, "--data", str(undersampled), "--out", str(tmp_path / "o")) == 1
        assert message in capsys.readouterr().err

    def test_recon_exits_1_when_acquired_columns_drift(self, undersampled, trained,
                                                        tmp_path, capsys, monkeypatch):
        real = cli.reconstruct

        def drifting(measured_ks, acquired, *args, seed=0, **kwargs):
            res = real(measured_ks, acquired, *args, seed=seed, **kwargs)
            if seed == 3:
                res.final_kspace = res.final_kspace.copy()
                res.final_kspace[0, 0, acquired.indices()[0]] += 1e-12
            return res

        monkeypatch.setattr(cli, "reconstruct", drifting)
        assert invoke("recon", "--data", str(undersampled), "--run", str(trained),
                      "--out", str(tmp_path / "rec"), "--seed", "0") == 1
        assert "slice 3:" in capsys.readouterr().err

    def test_resume_with_other_widths_exits_1_naming_file(self, undersampled, trained,
                                                          tmp_path, capsys):
        assert invoke("train", "--data", str(undersampled), "--out", str(tmp_path / "o"),
                      "--resume", str(trained / "checkpoints" / "final"),
                      "--hidden", "8", "--disc-width", "4", "--seed", "11") == 1
        err = capsys.readouterr().err
        assert "denoiser.conv0.w.cksp" in err and "(45, 6)" in err and "(45, 8)" in err

    @pytest.mark.parametrize("argv", [
        ("eval", "--n-boot", "0"), ("eval", "--n-boot", "1"), ("sweep", "--n-boot", "1"),
        ("undersample", "--noise-std", "nan"), ("undersample", "--noise-std", "-1"),
        ("sweep", "--noise-std", "inf"), ("phantom", "--n", "0"),
        ("phantom", "--size", "8"), ("phantom", "--size", "15"), ("phantom", "--coils", "0"),
        ("phantom", "--ellipses", "0"),
        ("undersample", "--R", "0.5"), ("undersample", "--R", "nan"),
        ("undersample", "--R", "100"), ("undersample", "--center-fraction", "0"),
        ("undersample", "--center-fraction", "1"),
        ("sweep", "--R-grid", "2", "0.5"), ("sweep", "--R-grid", "2", "100"),
        ("sweep", "--rho-grid", "0.5", "1.5"), ("sweep", "--rho-grid", "0"),
        ("sweep", "--rho-grid", "0.3", "0.3"), ("sweep", "--rho-grid", "0.3", "0.3000001"),
        ("sweep", "--R-grid", "2", "2.0000001"),
        ("sweep", "--center-fraction", "1.5"),
        ("sweep", "--T", "0"), ("sweep", "--stride-k", "30"), ("sweep", "--seed", "-1"),
        ("recon", "--t-start", "1"), ("recon", "--t-start", "-3"),
        ("recon", "--t-start", "101"),
        ("train", "--rho", "1.5"), ("train", "--rho", "0"), ("train", "--lr", "0"),
        ("train", "--lr", "nan"), ("train", "--batch-size", "0"), ("train", "--epochs", "0"),
        ("train", "--T", "0"), ("train", "--stride-k", "1"), ("train", "--stride-k", "30"),
        ("train", "--adv-weight", "-1"), ("train", "--hidden", "0"),
        ("train", "--disc-width", "0"), ("train", "--max-steps", "-1"),
        ("train", "--t-start", "1"), ("train", "--t-start", "101"), ("train", "--seed", "-1"),
        ("phantom", "--seed", "-1"), ("undersample", "--seed", "-1"),
        ("recon", "--seed", "-1"), ("eval", "--seed", "-1"),
        ("eval", "--method", "../x"), ("eval", "--method", "a,b"),
        *_UNTAKEN_FLAGS,
    ], ids=lambda argv: " ".join(argv))
    def test_bad_flag_value_exits_2_naming_flag(self, dataset, undersampled, trained,
                                                recon_dirs, tmp_path, capsys, argv):
        # a usage error, found before any output is written and shown under
        # the command's usage line
        inputs = {"eval": ("--recon", str(recon_dirs[0]), "--truth", str(dataset)),
                  "sweep": ("--data", str(dataset), "--rho-grid", "0.5", "--R-grid", "2",
                            "--max-steps", "1", "--hidden", "4", "--disc-width", "4"),
                  "undersample": ("--data", str(dataset)),
                  "phantom": ("--size", "16", "--coils", "1"),
                  "recon": ("--data", str(undersampled), "--run", str(trained)),
                  "train": ("--data", str(undersampled), "--max-steps", "1"),
                  "zerofill": ("--data", str(undersampled)),
                  "stats": tuple(str(tmp_path / f"{m}.metrics.csv") for m in "ab")}[argv[0]]
        out = tmp_path / "o"
        with pytest.raises(SystemExit) as exc:
            invoke(argv[0], *inputs, *argv[1:], "--out", str(out))
        assert exc.value.code == 2
        err = capsys.readouterr().err
        named = (f"unrecognized arguments: {' '.join(argv[1:])}" if argv in _UNTAKEN_FLAGS
                 else f"argument {argv[1]}: ")
        assert err.startswith(f"usage: ssdiffmri {argv[0]} [-h]")
        assert f"ssdiffmri {argv[0]}: error: {named}" in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [("undersample", "--R", "100"),
                                      ("recon", "--t-start", "500")],
                             ids=lambda argv: " ".join(argv))
    def test_in_command_usage_error_shows_the_command_usage(self, dataset, undersampled,
                                                            trained, tmp_path, capsys, argv):
        # checked against the dataset or the run, after argparse has finished
        inputs = {"undersample": ("--data", str(dataset)),
                  "recon": ("--data", str(undersampled), "--run", str(trained))}[argv[0]]
        with pytest.raises(SystemExit) as exc:
            invoke(argv[0], *inputs, *argv[1:], "--out", str(tmp_path / "o"))
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.splitlines()[0].startswith(f"usage: ssdiffmri {argv[0]} [-h]")
        assert f"ssdiffmri {argv[0]}: error: argument {argv[1]}: " in err

    def test_recon_non_finite_sampler_state_exits_1(self, undersampled, trained, tmp_path,
                                                    capsys, monkeypatch):
        def diverging(*args, **kwargs):
            raise FloatingPointError("non-finite sampler state at step 50")

        monkeypatch.setattr(cli, "reconstruct", diverging)
        assert invoke("recon", "--data", str(undersampled), "--run", str(trained),
                      "--out", str(tmp_path / "rec")) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err

    @pytest.mark.parametrize("others", [("m2",), ()], ids=["beside-another", "alone"])
    def test_stats_duplicate_method_exits_1_naming_both_files(self, dataset, recon_dirs,
                                                              tmp_path, capsys, others):
        # two reports of one method, beside a report of another or alone
        ev = tmp_path / "ev"
        for m in ("zf", *others):
            assert invoke("eval", "--recon", str(recon_dirs[0]), "--truth", str(dataset),
                          "--method", m, "--n-boot", "50", "--out", str(ev)) == 0
        shutil.copy(ev / "zf.metrics.csv", ev / "zf_copy.metrics.csv")
        reports = [ev / f"{m}.metrics.csv" for m in ("zf", "zf_copy", *others)]
        capsys.readouterr()
        out = tmp_path / "st"
        assert invoke("stats", *map(str, reports), "--out", str(out)) == 1
        assert (f"{reports[0]} and {reports[1]} both report method 'zf'"
                in capsys.readouterr().err)
        assert not out.exists()

    def test_stats_failure_leaves_no_output_directory(self, dataset, recon_dirs, tmp_path,
                                                      capsys):
        # one slice per method: the tests need two, and fail after reading
        ev = tmp_path / "ev"
        for m in ("a", "b"):
            assert invoke("eval", "--recon", str(recon_dirs[0]), "--truth", str(dataset),
                          "--method", m, "--n-boot", "50", "--out", str(ev)) == 0
            lines = (ev / f"{m}.metrics.csv").read_text().split("\n")
            (ev / f"{m}.metrics.csv").write_text("\n".join(lines[:2]) + "\n")
        capsys.readouterr()
        out = tmp_path / "st"
        assert invoke("stats", str(ev / "a.metrics.csv"), str(ev / "b.metrics.csv"),
                      "--out", str(out)) == 1
        assert "at least 2 samples" in capsys.readouterr().err
        assert not out.exists()

    def test_stats_single_report_exits_2(self, dataset, recon_dirs, tmp_path):
        rec, _ = recon_dirs
        ev = tmp_path / "ev"
        assert invoke("eval", "--recon", str(rec), "--truth", str(dataset),
                      "--method", "only", "--n-boot", "50", "--out", str(ev)) == 0
        with pytest.raises(SystemExit) as exc:
            invoke("stats", str(ev / "only.metrics.csv"), "--out", str(tmp_path / "s"))
        assert exc.value.code == 2

    @pytest.mark.parametrize("command,target,corruption", [
        ("train", "config.json", "json"),
        ("recon", "run/config.json", "json"),
        ("undersample", "data/sens.cksp", (3, 32, 32)),
        ("train", "data/sens.cksp", (3, 32, 32)),
        ("zerofill", "data/sens.cksp", (2, 16, 16)),
        ("zerofill", "under/kspace/slice_0001.cksp", (2, 16, 32)),
        ("undersample", "data/slices/slice_0002.cksp", (16, 16)),
        ("eval", "data/slices/slice_0002.cksp", (16, 16)),
        ("eval", "rec/recons/slice_0001.cksp", (8, 8)),
        ("sweep", "data/slices/slice_0002.cksp", (16, 16)),
    ], ids=lambda v: v if isinstance(v, str) else "x".join(map(str, v)))
    def test_bad_file_exits_1_naming_it(self, dataset, undersampled, trained, recon_dirs,
                                        tmp_path, capsys, command, target, corruption):
        # each command reads copies of the fixtures, one of them corrupted:
        # a malformed JSON file, or a tensor whose shape the others contradict
        shutil.copytree(dataset, tmp_path / "data")
        shutil.copytree(undersampled, tmp_path / "under")
        shutil.copytree(trained, tmp_path / "run")
        shutil.copytree(recon_dirs[0], tmp_path / "rec")
        meta = json.loads((tmp_path / "under" / "meta.json").read_text())
        (tmp_path / "under" / "meta.json").write_text(
            json.dumps({**meta, "dataset": str(tmp_path / "data")}))
        (tmp_path / "config.json").write_text("{}")
        path = tmp_path / target
        if corruption == "json":
            path.write_text('{"lr": 1e-3,\n}')
        else:
            tensorio.write_tensor(np.ones(corruption, np.complex64), path)

        def d(name):
            return str(tmp_path / name)

        argv = {
            "undersample": ["--data", d("data")],
            "train": ["--data", d("under"), "--config", d("config.json"),
                      "--max-steps", "1", "--hidden", "6", "--disc-width", "4"],
            "recon": ["--data", d("under"), "--run", d("run")],
            "zerofill": ["--data", d("under")],
            "eval": ["--recon", d("rec"), "--truth", d("data"), "--n-boot", "50"],
            "sweep": ["--data", d("data"), "--rho-grid", "0.5", "--R-grid", "2",
                      "--max-steps", "1", "--n-boot", "50"],
        }[command]
        assert invoke(command, *argv, "--out", d("out")) == 1
        err = capsys.readouterr().err
        assert str(path) in err and "Traceback" not in err

    def _recon_copy(self, recon_dirs, tmp_path):
        rec = tmp_path / "rec"
        shutil.copytree(recon_dirs[0], rec)
        return rec

    def test_eval_stray_recon_file_exits_1(self, dataset, recon_dirs, tmp_path, capsys):
        rec = self._recon_copy(recon_dirs, tmp_path)
        shutil.copy(rec / "recons" / "slice_0000.cksp", rec / "recons" / "slice_0099.cksp")
        assert invoke("eval", "--recon", str(rec), "--truth", str(dataset),
                      "--n-boot", "50", "--out", str(tmp_path / "ev")) == 1
        assert "slice_0099.cksp" in capsys.readouterr().err

    def test_eval_missing_slice_id_exits_1(self, dataset, recon_dirs, tmp_path, capsys):
        rec = self._recon_copy(recon_dirs, tmp_path)
        os.remove(rec / "recons" / "slice_0002.cksp")
        assert invoke("eval", "--recon", str(rec), "--truth", str(dataset),
                      "--n-boot", "50", "--out", str(tmp_path / "ev")) == 1
        assert "without a recon [2]" in capsys.readouterr().err


class TestFlagsRead:
    @pytest.mark.parametrize("command", ["phantom", "undersample", "train", "recon",
                                         "zerofill", "eval", "stats", "sweep"])
    def test_every_flag_a_command_defines_is_read(self, dataset, undersampled, trained,
                                                  recon_dirs, tmp_path, monkeypatch,
                                                  command):
        # the command runs on a namespace that records its reads; sweep is
        # also checked through the namespaces it hands undersample, train and
        # recon, each of which must read every attribute it is given
        ev = tmp_path / "ev"
        for m in ("a", "b") if command == "stats" else ():
            assert invoke("eval", "--recon", str(recon_dirs[0]), "--truth", str(dataset),
                          "--method", m, "--n-boot", "50", "--out", str(ev)) == 0
        argv = {"phantom": ["--n", "2", "--size", "16", "--coils", "1"],
                "undersample": ["--data", str(dataset)],
                "train": ["--data", str(undersampled), "--max-steps", "1", "--hidden", "4",
                          "--disc-width", "2"],
                "recon": ["--data", str(undersampled), "--run", str(trained)],
                "zerofill": ["--data", str(undersampled)],
                "eval": ["--recon", str(recon_dirs[0]), "--truth", str(dataset),
                         "--n-boot", "50"],
                "stats": [str(ev / "a.metrics.csv"), str(ev / "b.metrics.csv")],
                "sweep": ["--data", str(dataset), "--rho-grid", "0.5", "--R-grid", "2",
                          "--max-steps", "1", "--hidden", "4", "--disc-width", "2",
                          "--n-boot", "50"]}[command]
        args = build_parser().parse_args([command, *argv, "--out", str(tmp_path / "out")])
        handed = []

        def recording(func):
            def run_recorded(ns):
                handed.append((func.__name__, Recording(**vars(ns))))
                return func(handed[-1][1])
            return run_recorded

        for name in ("cmd_undersample", "cmd_train", "cmd_recon"):
            monkeypatch.setattr(cli, name, recording(getattr(cli, name)))
        ns = Recording(**vars(args))
        assert args.func(ns) == 0
        dests = {action.dest for action in args.parser._actions} - {"help"}
        assert dests - ns._read == set()
        assert [name for name, _ in handed] == (
            ["cmd_undersample", "cmd_train", "cmd_recon"] if command == "sweep" else [])
        for name, sub in handed:
            assert set(vars(sub)) - {"_read"} - sub._read == set(), name


class TestSweep:
    def test_sweep_small_grid(self, dataset, tmp_path):
        out = tmp_path / "sweep"
        assert invoke("sweep", "--data", str(dataset), "--out", str(out),
                      "--rho-grid", "0.3", "0.7", "--R-grid", "2",
                      "--max-steps", "2", "--hidden", "6", "--disc-width", "4",
                      "--batch-size", "2", "--epochs", "1", "--n-boot", "50",
                      "--seed", "4") == 0
        rows = (out / "sweep.csv").read_text().strip().split("\n")
        assert rows[0] == "R,rho,slice,nmse,psnr,ssim"
        assert len(rows) == 1 + 2 * 6
        for row in rows[1:]:
            vals = row.split(",")
            assert np.isfinite(float(vals[3]))
            assert np.isfinite(float(vals[4]))
            assert np.isfinite(float(vals[5]))
        with open(out / "summary.json") as f:
            summary = json.load(f)
        assert set(summary) == {"R2_rho0.3", "R2_rho0.7"}


# `train` in a child process with a pause before every training step
# ("step") or before every checkpoint file ("save"), so that a kill lands
# between steps or while a checkpoint's <tag>.tmp directory is being written
_PAUSED_TRAIN = """
import sys, time
from ssdiffmri import cli, pipeline, tensorio

def paused(func, seconds):
    def call(*args, **kwargs):
        time.sleep(seconds)
        return func(*args, **kwargs)
    return call

if sys.argv[1] == "step":
    pipeline.Trainer.train_step = paused(pipeline.Trainer.train_step, 0.3)
else:
    tensorio.write_tensor = paused(tensorio.write_tensor, 0.005)
sys.exit(cli.run(sys.argv[2:]))
"""


class TestKilledTrain:
    """A `train` killed at any moment leaves only complete checkpoints, and a
    resume from the newest reaches the uninterrupted run's bytes."""

    FLAGS = ("--max-steps", "4", "--hidden", "4", "--disc-width", "2",
             "--batch-size", "2", "--seed", "5")

    @pytest.fixture(scope="class")
    def small(self, tmp_path_factory):
        d = tmp_path_factory.mktemp("killed")
        assert invoke("phantom", "--n", "6", "--size", "16", "--coils", "2",
                      "--out", str(d / "ph")) == 0
        assert invoke("undersample", "--data", str(d / "ph"), "--out", str(d / "us")) == 0
        (d / "every.json").write_text(json.dumps({"checkpoint_every": 1}))
        assert invoke("train", "--data", str(d / "us"), "--config", str(d / "every.json"),
                      *self.FLAGS, "--out", str(d / "ref")) == 0
        return d

    @pytest.mark.parametrize("pause,window,left", [
        ("step", "step_000002", ["step_000001", "step_000002"]),
        ("save", "step_000002.tmp", ["step_000001", "step_000002.tmp"]),
    ], ids=["between-steps", "during-save"])
    def test_resume_after_sigkill_matches_the_uninterrupted_run(self, small, tmp_path,
                                                                pause, window, left):
        argv = ["train", "--data", str(small / "us"), "--config", str(small / "every.json"),
                *self.FLAGS]
        checkpoints = tmp_path / "killed" / "checkpoints"
        env = dict(os.environ,
                   PYTHONPATH=os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__))))
        with open(tmp_path / "stderr", "w") as err:
            child = subprocess.Popen(
                [sys.executable, "-c", _PAUSED_TRAIN, pause, *argv,
                 "--out", str(tmp_path / "killed")],
                env=env, stdout=subprocess.DEVNULL, stderr=err)
        try:
            deadline = time.monotonic() + 20
            while not (checkpoints / window).exists():
                assert child.poll() is None, (tmp_path / "stderr").read_text()
                assert time.monotonic() < deadline
                time.sleep(0.002)
        finally:
            child.kill()  # SIGKILL
            child.wait(timeout=10)
        assert child.returncode == -signal.SIGKILL
        assert sorted(os.listdir(checkpoints)) == left
        steps = [tag for tag in left if not tag.endswith(".tmp")]
        for tag in steps:
            den, disc = build_models(TrainConfig(hidden=4, disc_width=2))
            load_checkpoint(checkpoints / tag, den.state, disc.state)
            assert den.state.step == int(tag[len("step_"):])
            assert_same_checkpoint(checkpoints / tag, small / "ref" / "checkpoints" / tag)
        resumed = tmp_path / "resumed"
        assert invoke(*argv, "--resume", str(checkpoints / steps[-1]),
                      "--out", str(resumed)) == 0
        assert_same_checkpoint(small / "ref" / "checkpoints" / "final",
                               resumed / "checkpoints" / "final")
