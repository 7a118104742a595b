import json
import math

import numpy as np
import pytest

from lumaswitch.cli import main
from lumaswitch.colorspace import FEATURE_KEYS, feature_vector
from lumaswitch.imaging import ImageBuffer, load_image, save_image
from lumaswitch.mlp import init_model, load_model, save_model
from lumaswitch.skinfilter import ColorSpaceId, to_space

from conftest import make_image, make_patch_image, read_mask


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


def test_segment_patch_maxconnected(tmp_path, capsys):
    img_path = write_ppm(tmp_path / "patch.ppm", make_patch_image(with_salt=True))
    out = tmp_path / "out"
    rc = main(["segment", "--strategy", "maxconnected", "--out-dir", str(out), img_path])
    assert rc == 0
    rec = json.loads(capsys.readouterr().out.splitlines()[0])
    assert rec["chosen"] == "RGB"
    assert rec["blob_size"] == 256
    assert rec["per_space_sizes"] == {"RGB": 256, "HSV": 256, "YCbCr": 256}
    assert rec["filter"]["rgb"]["r"] == [95, 255]

    mask = read_mask(out / "patch.mask.pgm")
    assert mask.bits.shape == (64, 64)
    assert mask.count() == 256
    raw = read_mask(out / "patch.raw.pgm")
    assert raw.count() == 256 + 5
    overlay = load_image(out / "patch.overlay.ppm")
    assert overlay.pixels.shape == (64, 64, 3)


def test_segment_all_black_image(tmp_path, capsys):
    img_path = write_ppm(tmp_path / "black.ppm", make_image(10, 12))
    out = tmp_path / "out"
    rc = main(["segment", "--out-dir", str(out), img_path])
    assert rc == 0
    rec = json.loads(capsys.readouterr().out.splitlines()[0])
    assert rec["blob_size"] == 0
    mask = read_mask(out / "black.mask.pgm")
    assert mask.bits.shape == (10, 12)
    assert mask.count() == 0


def test_segment_ann_requires_model(tmp_path, capsys):
    img_path = write_ppm(tmp_path / "x.ppm", make_image(4, 4))
    rc = main(["segment", "--strategy", "ann", "--out-dir", str(tmp_path / "o"), img_path])
    assert rc == 2
    err = capsys.readouterr().err
    assert "--model" in err and "usage" in err


def test_segment_unreadable_input_skipped(tmp_path, capsys):
    good = write_ppm(tmp_path / "good.ppm", make_patch_image())
    bad = tmp_path / "missing.ppm"
    out = tmp_path / "out"
    rc = main(["segment", "--out-dir", str(out), str(bad), good])
    assert rc == 1
    lines = capsys.readouterr().out.splitlines()
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

    model = load_model(model_path)
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
    from lumaswitch.mlp import MlpModel, save_model

    model = MlpModel(w1=np.zeros((2, 9)), b1=np.zeros(2), w2=np.zeros((3, 2)), b2=np.array([5.0, 0, 0]))
    model_path = tmp_path / "forced.json"
    save_model(model, model_path)
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


# the eval report's features object for the 1x2 image [[255,0,0],[0,0,0]],
# byte for byte: its keys, their order and every value's repr
PINNED_FEATURES = (
    '{"mean_h": 0.0, "mean_s": 0.5, "mean_v": 0.5, "mean_y": 38.122499999999995, '
    '"mean_cb": 106.48616, "mean_cr": 191.5, "mean_r": 127.5, "mean_g": 0.0, "mean_b": 0.0}'
)


def test_eval_report_features_are_pinned(tmp_path):
    two = ImageBuffer(np.array([[[255, 0, 0], [0, 0, 0]]], dtype=np.uint8))
    image = write_ppm(tmp_path / "two.ppm", two)
    manifest = tmp_path / "m.txt"
    manifest.write_text(f"{image} RGB\n")
    model_path = tmp_path / "model.json"
    save_model(init_model(3, seed=0), model_path)
    report_path = tmp_path / "r.json"
    assert main(["eval", str(manifest), "--model", str(model_path), "--report", str(report_path)]) == 0
    features = json.loads(report_path.read_text())["records"][0]["features"]
    assert json.dumps(features) == PINNED_FEATURES
    names = ("mean_h", "mean_s", "mean_v", "mean_y", "mean_cb", "mean_cr", "mean_r", "mean_g", "mean_b")
    assert tuple(features) == FEATURE_KEYS == names
    array = feature_vector([to_space(two, s) for s in ColorSpaceId])
    assert array.shape == (9,) and array.dtype == np.float64
    assert np.array(list(features.values())).tobytes() == array.tobytes()


def test_stream_directory(tmp_path, capsys):
    frames = tmp_path / "frames"
    frames.mkdir()
    for i in range(3):
        write_ppm(frames / f"f{i:03d}.ppm", make_patch_image())
    out = tmp_path / "out"
    rc = main(["stream", "--out-dir", str(out), str(frames)])
    assert rc == 0
    lines = [json.loads(l) for l in capsys.readouterr().out.splitlines()]
    assert [l["frame"] for l in lines] == [0, 1, 2]
    assert {l["blob_size"] for l in lines} == {256}


def test_stream_empty_directory(tmp_path, capsys):
    frames, _ = stream_frames(tmp_path)
    out = tmp_path / "o"
    assert main(["stream", "--out-dir", str(out), str(frames)]) == 0
    empty = tmp_path / "empty"
    empty.mkdir()
    assert main(["stream", "--out-dir", str(out), str(empty)]) == 1
    assert f"no PPM frames in {empty}" in capsys.readouterr().err

    cfg = tmp_path / "filter.cfg"
    cfg.write_text("rgb.r.lo = 300\n")
    assert main(["stream", "--filter-config", str(cfg), "--out-dir", str(out), str(empty)]) == 2


def test_stream_mixed_dimensions(tmp_path, capsys):
    frames = tmp_path / "frames"
    frames.mkdir()
    write_ppm(frames / "a.ppm", make_image(4, 6))
    write_ppm(frames / "b.ppm", make_patch_image())
    out = tmp_path / "out"
    rc = main(["stream", "--out-dir", str(out), str(frames)])
    assert rc == 0
    lines = [json.loads(l) for l in capsys.readouterr().out.splitlines()]
    assert [l["blob_size"] for l in lines] == [0, 256]


def stream_frames(tmp_path):
    """Three frames a stream and a segment run can both read."""
    frames = tmp_path / "frames"
    frames.mkdir()
    images = [make_patch_image(with_salt=True), make_image(6, 9, (60, 20, 10)), make_patch_image()]
    return frames, [write_ppm(frames / f"f{i:03d}.ppm", img) for i, img in enumerate(images)]


@pytest.mark.parametrize("strategy", [["maxconnected"], ["sigmaconnect", "--vote-threshold", "2"]])
def test_segment_and_stream_write_the_same_outputs(tmp_path, capsys, strategy):
    frames, paths = stream_frames(tmp_path)
    seg, stream = tmp_path / "seg", tmp_path / "stream"
    flags = ["--strategy", *strategy]
    assert main(["segment", *flags, "--out-dir", str(seg), *paths]) == 0
    seg_lines = [json.loads(l) for l in capsys.readouterr().out.splitlines()]
    assert main(["stream", *flags, "--out-dir", str(stream), str(frames)]) == 0
    stream_lines = [json.loads(l) for l in capsys.readouterr().out.splitlines()]

    assert [l.pop("file") for l in seg_lines] == paths
    assert [l.pop("file") for l in stream_lines] == paths
    assert [l.pop("frame") for l in stream_lines] == [0, 1, 2]
    assert seg_lines == stream_lines
    for i in range(3):
        for kind in ("mask.pgm", "raw.pgm", "overlay.ppm"):
            seg_bytes = (seg / f"f{i:03d}.{kind}").read_bytes()
            assert seg_bytes == (stream / f"f{i:03d}.frame{i:06d}.{kind}").read_bytes()


@pytest.mark.parametrize("command", ["segment", "stream"])
@pytest.mark.parametrize(
    "flags",
    [
        ["--model", "MODEL"],
        ["--strategy", "sigmaconnect", "--model", "MODEL"],
        ["--vote-threshold", "2"],
        ["--strategy", "ann", "--model", "MODEL", "--vote-threshold", "1"],
    ],
)
def test_strategy_flag_the_strategy_does_not_read_exits_2(tmp_path, capsys, command, flags):
    frames, paths = stream_frames(tmp_path)
    model_path = tmp_path / "model.json"
    save_model(init_model(3, seed=0), model_path)
    flag = flags[-2]  # the flag at fault is given last
    flags = [str(model_path) if f == "MODEL" else f for f in flags]
    missing = tmp_path / "missing.cfg"  # the flags are checked before the filter is read
    out = tmp_path / "out"
    inputs = paths if command == "segment" else [str(frames)]
    argv = [command, *flags, "--filter-config", str(missing), "--out-dir", str(out), *inputs]
    assert main(argv) == 2
    assert f"error: {flag} is read only by --strategy " in capsys.readouterr().err
    assert not out.exists()


def test_stream_skips_truncated_middle_frame(tmp_path, capsys):
    frames, paths = stream_frames(tmp_path)
    middle = frames / "f001.ppm"
    middle.write_bytes(middle.read_bytes()[:-10])
    out = tmp_path / "out"
    assert main(["stream", "--out-dir", str(out), str(frames)]) == 1
    lines = [json.loads(l) for l in capsys.readouterr().out.splitlines()]
    assert [l["frame"] for l in lines] == [0, 2]
    assert [l["file"] for l in lines] == [paths[0], paths[2]]
    assert (out / "f002.frame000002.mask.pgm").exists()
    assert not list(out.glob("f001.*"))


def test_input_that_fails_to_load_leaves_no_artifacts(tmp_path, capsys):
    image = write_ppm(tmp_path / "a.ppm", make_patch_image())
    out = tmp_path / "out"
    assert main(["segment", "--out-dir", str(out), image]) == 0
    assert len(list(out.glob("a.*"))) == 3
    capsys.readouterr()
    (tmp_path / "a.ppm").write_bytes((tmp_path / "a.ppm").read_bytes()[:-10])
    assert main(["segment", "--out-dir", str(out), image]) == 1
    assert not list(out.glob("a.*"))  # no artifacts of the earlier run
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"skipping {image}: " in captured.err


@pytest.mark.parametrize(
    "blocked, loop",
    [("mask.pgm", False), ("raw.pgm", False), ("overlay.ppm", False), ("raw.pgm", True)],
    ids=["mask.pgm", "raw.pgm", "overlay.ppm", "raw.pgm-loop"],
)
@pytest.mark.parametrize("command", ["segment", "stream"])
def test_artifact_write_failure_skips_only_that_input(tmp_path, capsys, command, blocked, loop):
    frames, paths = stream_frames(tmp_path)
    out = tmp_path / "out"
    stems = ["f000", "f001", "f002"]
    if command == "stream":
        stems = [f"{stem}.frame{i:06d}" for i, stem in enumerate(stems)]
    blocker = out / f"{stems[1]}.{blocked}"  # the second input cannot be written
    if loop:
        out.mkdir()
        blocker.symlink_to(blocker.name)  # a symlink to itself
    else:
        blocker.mkdir(parents=True)
    inputs = paths if command == "segment" else [str(frames)]
    assert main([command, "--out-dir", str(out), *inputs]) == 1
    captured = capsys.readouterr()
    lines = [json.loads(l) for l in captured.out.splitlines()]
    assert [l["file"] for l in lines] == [paths[0], paths[2]]
    for kind in ("mask.pgm", "raw.pgm", "overlay.ppm"):
        assert (out / f"{stems[2]}.{kind}").is_file()
        assert not (out / f"{stems[1]}.{kind}").is_file()  # no partial artifacts
    assert f"skipping {paths[1]}: " in captured.err


@pytest.mark.parametrize(
    "field, value",
    [
        ("b1", [0.0, 0.0]),
        ("shift", math.nan),
        ("shift", math.inf),
        ("shift", -math.inf),
        ("hidden_count", 3.9),
        ("hidden_count", "3"),
        ("format_version", True),
    ],
)
def test_invalid_model_values_exit_2_naming_the_file(tmp_path, capsys, field, value):
    path = tmp_path / "invalid.json"
    save_model(init_model(3, seed=0), path)
    doc = json.loads(path.read_text())
    if field == "shift":
        doc["normalization"]["shift"][4] = value
    else:
        doc[field] = value
    path.write_text(json.dumps(doc))
    img_path = write_ppm(tmp_path / "x.ppm", make_image(4, 4))
    out = tmp_path / "o"
    assert main(["segment", "--strategy", "ann", "--model", str(path), "--out-dir", str(out), img_path]) == 2
    assert f"{path}: malformed model file: {field}" in capsys.readouterr().err
    assert not out.exists()


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


def test_filter_bound_lowered_after_raised_is_accepted(tmp_path, capsys):
    cfg = tmp_path / "filter.cfg"
    cfg.write_text("rgb.r.hi = 50\nrgb.r.lo = 10\n")
    img_path = write_ppm(tmp_path / "patch.ppm", make_patch_image())
    out = tmp_path / "out"
    assert main(["segment", "--filter-config", str(cfg), "--out-dir", str(out), img_path]) == 0
    rec = json.loads(capsys.readouterr().out)
    assert rec["filter"]["rgb"]["r"] == [10, 50]


def test_filter_config_that_is_not_utf8_exits_2_naming_the_file(tmp_path, capsys):
    cfg = tmp_path / "filter.cfg"
    cfg.write_bytes(b"\xffrgb.r.lo = 150\n")
    img_path = write_ppm(tmp_path / "patch.ppm", make_patch_image())
    out = tmp_path / "out"
    assert main(["segment", "--filter-config", str(cfg), "--out-dir", str(out), img_path]) == 2
    assert f"error: {cfg}: " in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["train", "eval"])
def test_manifest_that_is_not_utf8_exits_2_naming_the_file(tmp_path, capsys, command):
    model_path = tmp_path / "model.json"
    save_model(init_model(3, seed=0), model_path)
    manifest = write_manifest(tmp_path)
    manifest.write_bytes(b"\xff" + manifest.read_bytes())
    assert main([command, str(manifest), "--model", str(model_path)]) == 2
    assert f"error: {manifest}: " in capsys.readouterr().err


def test_manifest_line_errors_name_the_file_and_line(tmp_path, capsys):
    p = write_ppm(tmp_path / "img.ppm", make_image(4, 4))
    manifest = tmp_path / "m.txt"
    manifest.write_text(f"# images\n{p} RGB\n{p}\n")
    assert main(["train", str(manifest), "--model", str(tmp_path / "m.json")]) == 2
    assert f"error: {manifest}: line 3: " in capsys.readouterr().err


def test_model_file_that_is_not_ascii_exits_2_naming_the_file(tmp_path, capsys):
    path = tmp_path / "model.json"
    path.write_bytes(b'{"format_version": "\xc3\xa9"}')
    img_path = write_ppm(tmp_path / "x.ppm", make_image(4, 4))
    out = tmp_path / "o"
    assert main(["segment", "--strategy", "ann", "--model", str(path), "--out-dir", str(out), img_path]) == 2
    assert f"{path}: malformed model file: " in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("other", ["b/x.ppm", "a/x.ppm"])
def test_segment_inputs_sharing_a_stem_exit_2_before_any_output(tmp_path, capsys, other):
    for name in ("a", "b"):
        (tmp_path / name).mkdir()
        write_ppm(tmp_path / name / "x.ppm", make_patch_image())
    first, second = str(tmp_path / "a/x.ppm"), str(tmp_path / other)
    out = tmp_path / "out"
    assert main(["segment", "--out-dir", str(out), first, second]) == 2
    err = capsys.readouterr().err
    assert f"inputs {first} and {second} share the artifact stem 'x'" in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["segment", "stream"])
def test_segment_and_stream_write_only_the_three_artifacts(tmp_path, capsys, command):
    # the report lines go to stdout only: no report file, and no flag to name one
    frames, paths = stream_frames(tmp_path)
    out = tmp_path / "out"
    inputs = paths if command == "segment" else [str(frames)]
    assert main([command, "--out-dir", str(out), *inputs]) == 0
    assert [json.loads(l)["file"] for l in capsys.readouterr().out.splitlines()] == paths
    stems = ["f000", "f001", "f002"]
    if command == "stream":
        stems = [f"{stem}.frame{i:06d}" for i, stem in enumerate(stems)]
    kinds = ("mask.pgm", "raw.pgm", "overlay.ppm")
    assert sorted(p.name for p in out.iterdir()) == sorted(f"{s}.{k}" for s in stems for k in kinds)
    report, other = tmp_path / "r.jsonl", tmp_path / "other"
    with pytest.raises(SystemExit) as exc:
        main([command, "--out-dir", str(other), "--report", str(report), *inputs])
    assert exc.value.code == 2
    assert "--report" in capsys.readouterr().err
    assert not report.exists() and not other.exists()


@pytest.mark.parametrize(
    "command, via",
    [
        ("segment", "direct"),
        ("segment", "symlink"),
        ("stream", "direct"),
        ("stream", "rerun"),
        ("segment", "--filter-config"),
        ("segment", "--model"),
    ],
)
def test_input_that_is_an_artifact_exits_2_and_stays_unchanged(
    tmp_path, monkeypatch, capsys, command, via
):
    # the overlay artifact of d/a.ppm is d/a.overlay.ppm, or, as frame 2
    # of a stream into its own directory, d/a.frame000002.overlay.ppm; a
    # rerun of that stream would read its first run's overlay as a frame.
    # A filter config or model that is an artifact is an input as well.
    d = tmp_path / "d"
    d.mkdir()
    write_ppm(d / "a.ppm", make_patch_image())
    flags = []
    if via == "rerun":
        assert main(["stream", "--out-dir", str(d), str(d)]) == 0
        capsys.readouterr()
        victim = d / "a.frame000000.overlay.ppm"
    elif via == "--filter-config":
        victim = d / "a.mask.pgm"
        victim.write_text("rgb.r.lo = 80\n")
        flags = [via, str(victim)]
    elif via == "--model":
        victim = d / "a.overlay.ppm"
        save_model(init_model(3, seed=0), victim)
        flags = ["--strategy", "ann", via, str(victim)]
    else:
        victim = d / ("a.overlay.ppm" if command == "segment" else "a.frame000002.overlay.ppm")
        write_ppm(victim, make_patch_image(with_salt=True))
    if via == "direct" and command == "stream":
        write_ppm(d / "0.ppm", make_image(4, 4))
    before = {p.name: p.read_bytes() for p in d.iterdir()}
    named = victim
    if via == "symlink":
        (tmp_path / "links").mkdir()
        named = tmp_path / "links" / "b.ppm"
        named.symlink_to(victim)
    inputs = [str(d / "a.ppm"), str(named)] if command == "segment" else [str(d)]
    if flags:
        inputs = [*flags, str(d / "a.ppm")]
    decoded = []
    monkeypatch.setattr("lumaswitch.cli.load_image", lambda image: decoded.append(image))
    assert main([command, "--out-dir", str(d), *inputs]) == 2
    assert decoded == []
    captured = capsys.readouterr()
    assert captured.out == ""
    assert str(named if command == "segment" else victim) in captured.err
    assert f"is {victim}," in captured.err
    assert {p.name: p.read_bytes() for p in d.iterdir()} == before


@pytest.mark.parametrize(
    "command, loop",
    [("segment", False), ("stream", False), ("segment", True), ("stream", True)],
    ids=["segment", "stream", "segment-loop", "stream-loop"],
)
def test_out_dir_that_is_a_file_exits_2_before_any_read(tmp_path, capsys, command, loop):
    frames, paths = stream_frames(tmp_path)
    out = tmp_path / "out"
    if loop:  # out -> out2 -> out, which cannot be listed
        out.symlink_to("out2")
        (tmp_path / "out2").symlink_to("out")
    else:
        out.write_bytes(b"a file")
    missing = tmp_path / "missing.cfg"  # the out-dir is checked before the filter is read
    inputs = paths if command == "segment" else [str(frames)]
    assert main([command, "--filter-config", str(missing), "--out-dir", str(out), *inputs]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    error = f"{out}: Too many levels of symbolic links" if loop else f"{out} is not a directory"
    assert f"error: --out-dir {error}" in captured.err
    assert str(missing) not in captured.err
    assert loop or out.read_bytes() == b"a file"


@pytest.mark.parametrize(
    "flag, value, field",
    [
        ("--epochs", "0", "epochs"),
        ("--hidden", "0", "hidden_count"),
        ("--learning-rate", "nan", "learning_rate"),
        ("--learning-rate", "inf", "learning_rate"),
        ("--seed", "-1", "seed"),
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


@pytest.mark.parametrize(
    "command, flag, path",
    [
        ("train", "--model", "nodir/m.json"),
        ("train", "--model", "."),
        ("train", "--loss-csv", "nodir/l.csv"),
        ("eval", "--report", "nodir/r.json"),
        ("eval", "--report", "."),
        ("train", "--model", "manifest.txt"),
        ("train", "--loss-csv", "m.json"),
        ("train", "--loss-csv", "manifest.txt"),
        ("eval", "--report", "manifest.txt"),
        ("eval", "--report", "m.json"),
        ("train", "--model", "man2.txt"),
        ("train", "--model", "rgb_0.ppm"),
        ("train", "--loss-csv", "hsv_1.ppm"),
        ("eval", "--report", "ycbcr_2.ppm"),
        ("train", "--model", "link.ppm"),
        ("eval", "--report", "link.ppm"),
        ("train", "--loss-csv", "m2.json"),
        ("eval", "--report", "m2.json"),
        ("train", "--model", "loop"),
        ("train", "--loss-csv", "loop"),
        ("eval", "--report", "loop"),
    ],
)
def test_output_that_cannot_be_opened_exits_2_before_decoding(
    tmp_path, monkeypatch, capsys, command, flag, path
):
    # an output file in a missing directory, a directory, a symlink loop
    # (loop -> loop.json -> loop), or a file that is the manifest, the
    # model, the other output or an image the manifest lists, by name,
    # through a symlink (link.ppm) or a hard link (man2.txt to the
    # manifest, m2.json to an existing model)
    manifest = write_manifest(tmp_path)
    model = tmp_path / "m.json"
    if command == "eval" or path == "m2.json":
        save_model(init_model(3, seed=0), model)
    bad = tmp_path / path
    if path in ("man2.txt", "m2.json"):
        bad.hardlink_to(manifest if path == "man2.txt" else model)
    if path == "link.ppm":
        bad.symlink_to(tmp_path / "rgb_5.ppm")
    if path == "loop":
        bad.symlink_to("loop.json")
        (tmp_path / "loop.json").symlink_to("loop")
    argv = [command, str(manifest)]
    for name, value in {"--model": str(model), flag: str(bad)}.items():
        argv += [name, value]
    decoded = []
    monkeypatch.setattr("lumaswitch.cli.load_image", lambda image: decoded.append(image))
    files = {p: p.is_file() and p.read_bytes() for p in tmp_path.rglob("*")}
    assert main(argv) == 2
    assert decoded == []
    assert {p: p.is_file() and p.read_bytes() for p in tmp_path.rglob("*")} == files
    assert f"{flag} {bad}" in capsys.readouterr().err


def test_filter_config_flag_overrides_ranges(tmp_path, capsys):
    cfg = tmp_path / "filter.cfg"
    cfg.write_text("rgb.r.lo = 250\nrgb.g.lo = 0\nrgb.b.lo = 0\n")
    img_path = write_ppm(tmp_path / "patch.ppm", make_patch_image())
    out = tmp_path / "out"
    rc = main(["segment", "--filter-config", str(cfg), "--out-dir", str(out), img_path])
    assert rc == 0
    rec = json.loads(capsys.readouterr().out.splitlines()[0])
    # patch red value 180 < 250, so the RGB mask is empty under the override
    assert rec["per_space_sizes"]["RGB"] == 0
    assert rec["filter"]["rgb"]["r"] == [250, 255]


def test_segment_reproducible(tmp_path):
    img_path = write_ppm(tmp_path / "patch.ppm", make_patch_image(with_salt=True))
    outs = []
    for name in ("o1", "o2"):
        out = tmp_path / name
        main(["segment", "--out-dir", str(out), img_path])
        outs.append(out)
    for fname in ("patch.mask.pgm", "patch.raw.pgm", "patch.overlay.ppm"):
        assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes()


DEFAULT_FILTER_JSON = (
    '{"rgb": {"r": [95, 255], "g": [40, 255], "b": [20, 255]}, '
    '"hsv": {"h": [0.04, 0.0882], "s": [0.11, 0.68], "v": [0.38, 1.0]}, '
    '"ycbcr": {"cb": [100, 125], "cr": [135, 170]}}'
)


@pytest.mark.parametrize(
    "flags, fields",
    [
        (
            ["--strategy", "maxconnected"],
            '"strategy": "maxconnected", "chosen": "RGB", "blob_size": 256, '
            '"per_space_sizes": {"RGB": 256, "HSV": 256, "YCbCr": 256}',
        ),
        (
            ["--strategy", "sigmaconnect", "--vote-threshold", "2"],
            '"strategy": "sigmaconnect", "chosen": "Combined", "blob_size": 256, '
            '"per_space_sizes": {"RGB": 256, "HSV": 256, "YCbCr": 256}',
        ),
        (
            ["--strategy", "ann", "--model", "MODEL"],
            '"strategy": "ann", "chosen": "HSV", "blob_size": 256, "per_space_sizes": {"HSV": 256}',
        ),
    ],
)
def test_report_line_bytes_are_pinned(tmp_path, capsys, flags, fields):
    """Key order, the filter's int/float mix and where stream puts "frame"."""
    frames = tmp_path / "frames"
    frames.mkdir()
    img_path = write_ppm(frames / "patch.ppm", make_patch_image())
    model_path = tmp_path / "model.json"
    save_model(init_model(3, seed=0), model_path)
    flags = [str(model_path) if f == "MODEL" else f for f in flags]
    head = f'{{"file": {json.dumps(img_path)}, {fields}'
    tail = f'"filter": {DEFAULT_FILTER_JSON}}}\n'
    assert main(["segment", *flags, "--out-dir", str(tmp_path / "seg"), img_path]) == 0
    assert capsys.readouterr().out == f"{head}, {tail}"
    assert main(["stream", *flags, "--out-dir", str(tmp_path / "stream"), str(frames)]) == 0
    assert capsys.readouterr().out == f'{head}, "frame": 0, {tail}'
