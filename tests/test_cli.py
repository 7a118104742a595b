import json

import numpy as np
import pytest

from lumaswitch.cli import main
from lumaswitch.imaging import load_image, load_mask, save_image
from lumaswitch.mlp import load_model

from conftest import make_image, make_patch_image


def write_ppm(path, image):
    save_image(image, path)
    return str(path)


def write_manifest(tmp_path, name="manifest.txt"):
    """30 constant-color images in three well-separated clusters."""
    lines = []
    colors = {
        "RGB": lambda i: (200 + i, 40, 40),
        "HSV": lambda i: (40, 200 + i, 40),
        "YCbCr": lambda i: (40, 40, 200 + i),
    }
    for label, color in colors.items():
        for i in range(10):
            p = tmp_path / f"{label.lower()}_{i}.ppm"
            write_ppm(p, make_image(8, 8, color(i)))
            lines.append(f"{p} {label}")
    manifest = tmp_path / name
    manifest.write_text("\n".join(lines) + "\n")
    return manifest


def test_segment_patch_maxconnected(tmp_path):
    img_path = write_ppm(tmp_path / "patch.ppm", make_patch_image(with_salt=True))
    out = tmp_path / "out"
    report = tmp_path / "report.jsonl"
    rc = main(
        ["segment", "--strategy", "maxconnected", "--out-dir", str(out), "--report", str(report), img_path]
    )
    assert rc == 0
    rec = json.loads(report.read_text().splitlines()[0])
    assert rec["chosen"] == "RGB"
    assert rec["blob_size"] == 256
    assert rec["per_space_sizes"] == {"RGB": 256, "HSV": 256, "YCbCr": 256}
    assert rec["filter"]["rgb"]["r"] == [95, 255]

    mask = load_mask(out / "patch.mask.pgm")
    assert (mask.width, mask.height) == (64, 64)
    assert mask.count() == 256
    raw = load_mask(out / "patch.raw.pgm")
    assert raw.count() == 256 + 5
    overlay = load_image(out / "patch.overlay.ppm")
    assert (overlay.width, overlay.height) == (64, 64)


def test_segment_all_black_image(tmp_path):
    img_path = write_ppm(tmp_path / "black.ppm", make_image(10, 12))
    out = tmp_path / "out"
    rc = main(["segment", "--out-dir", str(out), img_path])
    assert rc == 0
    rec = json.loads((out / "report.jsonl").read_text().splitlines()[0])
    assert rec["blob_size"] == 0
    mask = load_mask(out / "black.mask.pgm")
    assert (mask.width, mask.height) == (12, 10)
    assert mask.count() == 0


def test_segment_ann_requires_model(tmp_path, capsys):
    img_path = write_ppm(tmp_path / "x.ppm", make_image(4, 4))
    rc = main(["segment", "--strategy", "ann", "--out-dir", str(tmp_path / "o"), img_path])
    assert rc == 2
    err = capsys.readouterr().err
    assert "--model" in err and "usage" in err


def test_segment_unreadable_input_skipped(tmp_path):
    good = write_ppm(tmp_path / "good.ppm", make_patch_image())
    bad = tmp_path / "missing.ppm"
    out = tmp_path / "out"
    rc = main(["segment", "--out-dir", str(out), str(bad), good])
    assert rc == 1
    lines = (out / "report.jsonl").read_text().splitlines()
    assert len(lines) == 1  # only the good image produced a record
    assert json.loads(lines[0])["blob_size"] == 256


def test_train_and_eval_round_trip(tmp_path, capsys):
    manifest = write_manifest(tmp_path)
    model_path = tmp_path / "model.json"
    loss_path = tmp_path / "loss.csv"
    rc = main(
        [
            "train",
            str(manifest),
            "--model",
            str(model_path),
            "--loss-csv",
            str(loss_path),
            "--epochs",
            "2000",
            "--learning-rate",
            "0.01",
            "--seed",
            "0",
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "training accuracy 100.00%" in out

    losses = loss_path.read_text().splitlines()
    assert losses[0] == "epoch,loss"
    first = float(losses[1].split(",")[1])
    last = float(losses[-1].split(",")[1])
    assert last < first

    model, norm = load_model(model_path)
    assert model.hidden_count == 15

    report_path = tmp_path / "eval.json"
    rc = main(["eval", str(manifest), "--model", str(model_path), "--report", str(report_path)])
    assert rc == 0
    report = json.loads(report_path.read_text())
    confusion = np.array(report["confusion"])
    assert np.array_equal(confusion, np.diag([10, 10, 10]))
    assert report["per_class_percent"] == [100.0, 100.0, 100.0]
    assert report["overall_accuracy_percent"] == 100.0
    assert len(report["records"]) == 30
    table = capsys.readouterr().out
    assert "overall accuracy 100.00%" in table


def test_train_single_image_memorizes(tmp_path, capsys):
    p = write_ppm(tmp_path / "one.ppm", make_image(8, 8, (200, 60, 60)))
    manifest = tmp_path / "m.txt"
    manifest.write_text(f"{p} HSV\n")
    model_path = tmp_path / "model.json"
    rc = main(["train", str(manifest), "--model", str(model_path), "--epochs", "2000", "--learning-rate", "0.1"])
    assert rc == 0
    assert "training accuracy 100.00%" in capsys.readouterr().out


def test_train_unknown_label(tmp_path, capsys):
    p = write_ppm(tmp_path / "img.ppm", make_image(4, 4))
    manifest = tmp_path / "m.txt"
    manifest.write_text(f"{p} CMY\n")
    rc = main(["train", str(manifest), "--model", str(tmp_path / "m.json")])
    assert rc == 2
    assert "CMY" in capsys.readouterr().err


def test_train_empty_manifest(tmp_path):
    manifest = tmp_path / "m.txt"
    manifest.write_text("\n")
    assert main(["train", str(manifest), "--model", str(tmp_path / "m.json")]) == 2


def test_eval_forced_rgb_model(tmp_path):
    # bias-only model that always answers RGB, manifest with 2 HSV images
    from lumaswitch.mlp import MlpModel, Normalization, save_model

    model = MlpModel(w1=np.zeros((2, 9)), b1=np.zeros(2), w2=np.zeros((3, 2)), b2=np.array([5.0, 0, 0]))
    model_path = tmp_path / "forced.json"
    save_model(model, Normalization.identity(), model_path)
    lines = []
    for i in range(2):
        p = write_ppm(tmp_path / f"h{i}.ppm", make_image(4, 4, (40, 200, 40)))
        lines.append(f"{p} HSV")
    manifest = tmp_path / "m.txt"
    manifest.write_text("\n".join(lines) + "\n")
    report_path = tmp_path / "r.json"
    rc = main(["eval", str(manifest), "--model", str(model_path), "--report", str(report_path)])
    assert rc == 0
    report = json.loads(report_path.read_text())
    assert report["confusion"][1] == [2, 0, 0]
    assert report["per_class_percent"][1] == 0.0


def test_stream_directory(tmp_path):
    frames = tmp_path / "frames"
    frames.mkdir()
    for i in range(3):
        write_ppm(frames / f"f{i:03d}.ppm", make_patch_image())
    out = tmp_path / "out"
    report = tmp_path / "r.jsonl"
    rc = main(["stream", "--out-dir", str(out), "--report", str(report), str(frames)])
    assert rc == 0
    lines = [json.loads(l) for l in report.read_text().splitlines()]
    assert [l["frame"] for l in lines] == [0, 1, 2]
    assert {l["blob_size"] for l in lines} == {256}


def test_stream_empty_directory(tmp_path):
    frames = tmp_path / "empty"
    frames.mkdir()
    assert main(["stream", "--out-dir", str(tmp_path / "o"), str(frames)]) == 1


def test_stream_mixed_dimensions(tmp_path):
    frames = tmp_path / "frames"
    frames.mkdir()
    write_ppm(frames / "a.ppm", make_image(4, 6))
    write_ppm(frames / "b.ppm", make_patch_image())
    out = tmp_path / "out"
    report = tmp_path / "r.jsonl"
    rc = main(["stream", "--out-dir", str(out), "--report", str(report), str(frames)])
    assert rc == 0
    lines = [json.loads(l) for l in report.read_text().splitlines()]
    assert [l["blob_size"] for l in lines] == [0, 256]


def stream_frames(tmp_path):
    """Three frames a stream and a segment run can both read."""
    frames = tmp_path / "frames"
    frames.mkdir()
    images = [make_patch_image(with_salt=True), make_image(6, 9, (60, 20, 10)), make_patch_image()]
    return frames, [write_ppm(frames / f"f{i:03d}.ppm", img) for i, img in enumerate(images)]


@pytest.mark.parametrize("strategy", [["maxconnected"], ["sigmaconnect", "--vote-threshold", "2"]])
def test_segment_and_stream_write_the_same_outputs(tmp_path, strategy):
    frames, paths = stream_frames(tmp_path)
    seg, stream = tmp_path / "seg", tmp_path / "stream"
    flags = ["--strategy", *strategy]
    assert main(["segment", *flags, "--out-dir", str(seg), *paths]) == 0
    assert main(["stream", *flags, "--out-dir", str(stream), str(frames)]) == 0

    seg_lines = [json.loads(l) for l in (seg / "report.jsonl").read_text().splitlines()]
    stream_lines = [json.loads(l) for l in (stream / "report.jsonl").read_text().splitlines()]
    assert [l.pop("file") for l in seg_lines] == paths
    assert [l.pop("file") for l in stream_lines] == paths
    assert [l.pop("frame") for l in stream_lines] == [0, 1, 2]
    assert seg_lines == stream_lines
    for i in range(3):
        for kind in ("mask.pgm", "raw.pgm", "overlay.ppm"):
            seg_bytes = (seg / f"f{i:03d}.{kind}").read_bytes()
            assert seg_bytes == (stream / f"f{i:03d}.frame{i:06d}.{kind}").read_bytes()


def test_stream_skips_truncated_middle_frame(tmp_path):
    frames, paths = stream_frames(tmp_path)
    middle = frames / "f001.ppm"
    middle.write_bytes(middle.read_bytes()[:-10])
    out = tmp_path / "out"
    assert main(["stream", "--out-dir", str(out), str(frames)]) == 1
    lines = [json.loads(l) for l in (out / "report.jsonl").read_text().splitlines()]
    assert [l["frame"] for l in lines] == [0, 2]
    assert [l["file"] for l in lines] == [paths[0], paths[2]]
    assert (out / "f002.frame000002.mask.pgm").exists()
    assert not list(out.glob("f001.*"))


def test_malformed_model_is_a_config_error_in_eval_and_segment(tmp_path):
    manifest = write_manifest(tmp_path)
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    img_path = write_ppm(tmp_path / "x.ppm", make_image(4, 4))
    out = str(tmp_path / "o")
    assert main(["eval", str(manifest), "--model", str(bad)]) == 2
    assert main(["segment", "--strategy", "ann", "--model", str(bad), "--out-dir", out, img_path]) == 2


def test_non_finite_filter_bound_exits_2(tmp_path, capsys):
    cfg = tmp_path / "filter.cfg"
    cfg.write_text("rgb.r.lo = nan\n")
    img_path = write_ppm(tmp_path / "patch.ppm", make_patch_image())
    out = tmp_path / "out"
    assert main(["segment", "--filter-config", str(cfg), "--out-dir", str(out), img_path]) == 2
    assert "line 1" in capsys.readouterr().err
    assert not out.exists()


def test_out_of_domain_filter_bound_exits_2(tmp_path, capsys):
    cfg = tmp_path / "filter.cfg"
    cfg.write_text("# red floor\nrgb.r.lo = 300\n")
    img_path = write_ppm(tmp_path / "patch.ppm", make_patch_image())
    out = tmp_path / "out"
    assert main(["segment", "--filter-config", str(cfg), "--out-dir", str(out), img_path]) == 2
    assert "line 2" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "text, channel",
    [("rgb.r.lo = 200\nrgb.r.hi = 100\n", "rgb.r"), ("hsv.h.lo = 0.95\nhsv.h.hi = 0.05\n", "hsv.h")],
)
def test_filter_bounds_out_of_order_exit_2(tmp_path, capsys, text, channel):
    cfg = tmp_path / "filter.cfg"
    cfg.write_text(text)
    img_path = write_ppm(tmp_path / "patch.ppm", make_patch_image())
    out = tmp_path / "out"
    assert main(["segment", "--filter-config", str(cfg), "--out-dir", str(out), img_path]) == 2
    assert f"{channel} has lo" in capsys.readouterr().err
    assert not out.exists()


def test_filter_bound_lowered_after_raised_is_accepted(tmp_path):
    cfg = tmp_path / "filter.cfg"
    cfg.write_text("rgb.r.hi = 50\nrgb.r.lo = 10\n")
    img_path = write_ppm(tmp_path / "patch.ppm", make_patch_image())
    out = tmp_path / "out"
    assert main(["segment", "--filter-config", str(cfg), "--out-dir", str(out), img_path]) == 0
    rec = json.loads((out / "report.jsonl").read_text())
    assert rec["filter"]["rgb"]["r"] == [10, 50]


def test_stream_rejects_negative_delay_before_first_frame(tmp_path):
    frames, _ = stream_frames(tmp_path)
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main(["stream", "--delay-us", "-5", "--out-dir", str(out), str(frames)])
    assert exc.value.code == 2
    assert not out.exists()


@pytest.mark.parametrize(
    "flag, value, field",
    [
        ("--epochs", "0", "epochs"),
        ("--hidden", "0", "hidden_count"),
        ("--learning-rate", "nan", "learning_rate"),
        ("--learning-rate", "inf", "learning_rate"),
    ],
)
def test_train_bad_hyperparameter_exits_2_before_decoding(
    tmp_path, monkeypatch, capsys, flag, value, field
):
    manifest = write_manifest(tmp_path)
    decoded = []
    monkeypatch.setattr("lumaswitch.cli.load_image", lambda path: decoded.append(path))
    assert main(["train", str(manifest), "--model", str(tmp_path / "m.json"), flag, value]) == 2
    assert decoded == []
    assert not (tmp_path / "m.json").exists()
    assert field in capsys.readouterr().err


def test_rerun_into_same_out_dir_leaves_one_report_line(tmp_path):
    img_path = write_ppm(tmp_path / "patch.ppm", make_patch_image())
    out = tmp_path / "out"
    for _ in range(2):
        assert main(["segment", "--out-dir", str(out), img_path]) == 0
    lines = (out / "report.jsonl").read_text().splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["file"] == img_path


def test_filter_config_env_fallback(tmp_path, monkeypatch):
    cfg = tmp_path / "filter.cfg"
    cfg.write_text("rgb.r.lo = 250\nrgb.g.lo = 0\nrgb.b.lo = 0\n")
    monkeypatch.setenv("LUMASWITCH_FILTER_CONFIG", str(cfg))
    img_path = write_ppm(tmp_path / "patch.ppm", make_patch_image())
    out = tmp_path / "out"
    rc = main(["segment", "--out-dir", str(out), img_path])
    assert rc == 0
    rec = json.loads((out / "report.jsonl").read_text().splitlines()[0])
    # patch red value 180 < 250, so the RGB mask is empty under the override
    assert rec["per_space_sizes"]["RGB"] == 0
    assert rec["filter"]["rgb"]["r"] == [250, 255]


def test_segment_reproducible(tmp_path):
    img_path = write_ppm(tmp_path / "patch.ppm", make_patch_image(with_salt=True))
    outs = []
    for name in ("o1", "o2"):
        out = tmp_path / name
        main(["segment", "--out-dir", str(out), "--report", str(out / "r.jsonl"), img_path])
        outs.append(out)
    for fname in ("patch.mask.pgm", "patch.raw.pgm", "patch.overlay.ppm"):
        assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes()
