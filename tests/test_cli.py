import json
import os
import shutil
import struct

import numpy as np
import pytest

from ssdiffmri import tensorio
from ssdiffmri.cli import _train_config_from_args, build_parser, run
from ssdiffmri.losses import LossReport
from ssdiffmri.nets import Denoiser
from ssdiffmri.pipeline import TrainConfig


def invoke(*argv):
    return run(list(argv))


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
        man = tensorio.DatasetManifest.load(dataset / "manifest.json")
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
        assert invoke("phantom", "--n", "1", "--size", "8",
                      "--out", str(tmp_path / "x")) == 1

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
            assert mask.sampled[mask.center_slice].all()

    def test_r1_equals_full_kspace(self, dataset, tmp_path):
        u = tmp_path / "full"
        assert invoke("undersample", "--data", str(dataset), "--R", "1",
                      "--out", str(u)) == 0
        man = tensorio.DatasetManifest.load(dataset / "manifest.json")
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
        cfg = _train_config_from_args(args, {"R": TrainConfig.R}, "meta.json")
        assert cfg == TrainConfig()

    def test_rho_out_of_range_usage(self, undersampled, tmp_path):
        assert invoke("train", "--data", str(undersampled), "--rho", "1.5",
                      "--out", str(tmp_path / "r")) == 1

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
        man = tensorio.DatasetManifest.load(dataset / "manifest.json")
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

    def test_resume_with_other_widths_exits_1_naming_file(self, undersampled, trained,
                                                          tmp_path, capsys):
        assert invoke("train", "--data", str(undersampled), "--out", str(tmp_path / "o"),
                      "--resume", str(trained / "checkpoints" / "final"),
                      "--hidden", "8", "--disc-width", "4", "--seed", "11") == 1
        err = capsys.readouterr().err
        assert "denoiser.conv0.w.cksp" in err and "(45, 6)" in err and "(45, 8)" in err

    def test_stats_single_report_exits_2(self, dataset, recon_dirs, tmp_path):
        rec, _ = recon_dirs
        ev = tmp_path / "ev"
        assert invoke("eval", "--recon", str(rec), "--truth", str(dataset),
                      "--method", "only", "--n-boot", "50", "--out", str(ev)) == 0
        with pytest.raises(SystemExit) as exc:
            invoke("stats", str(ev / "only.metrics.csv"), "--out", str(tmp_path / "s"))
        assert exc.value.code == 2

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
