"""Golden outputs of ``segment`` on seeded scenes up to 1920x1080.

The scenes are made here with numpy alone: three ellipse scenes of bright,
mid and dark skin with impulse noise, at 320x240 and 640x480, and one
1920x1080 comb texture with thousands of components.  Each case runs
``segment`` over all four and pins one sha256 over the report lines it
prints and every input's mask, raw mask and overlay files.  A change that
moves any mask bit, blob size, chosen space or report byte changes a digest.
"""

import hashlib

import numpy as np
import pytest

from lumaswitch.cli import main
from lumaswitch.mlp import MlpModel, save_model

SKIN = np.array([200.0, 140.0, 110.0])
# bright skin passes all three default ranges, mid skin fails a raised RGB
# red bound, dark skin passes YCbCr only
SKIN_GAINS = (1.0, 0.64, 0.42)
# (height, width, background RGB) of each ellipse scene; the backgrounds
# spread the image mean of V so that the model below picks every space
SCENES = ((240, 320, (230, 220, 12)), (480, 640, (120, 130, 140)), (240, 320, (25, 30, 40)))
CASES = {
    "maxconnected": ["--strategy", "maxconnected"],
    "sigmaconnect-1": ["--strategy", "sigmaconnect", "--vote-threshold", "1"],
    "sigmaconnect-2": ["--strategy", "sigmaconnect", "--vote-threshold", "2"],
    "sigmaconnect-3": ["--strategy", "sigmaconnect", "--vote-threshold", "3"],
    "ann": ["--strategy", "ann", "--model", "model.json"],
}
FILTERS = {"default": None, "r150": "rgb.r.lo = 150\n"}
# (case, filter) -> sha256 of the report and every artifact
DIGESTS = {
    ("maxconnected", "default"): "62acf2ca660d1ea316684292c82ed39dffac496ff1cbacaee9171355e27e103c",
    ("maxconnected", "r150"): "0e2f1eeea78134d697d2981f51fac0ed3b32dcab631da37e2f55477ebbee1a35",
    ("sigmaconnect-1", "default"): "8eb8f26854121d339dfadb33629827e40973774e7da6094247635d3af8482d9f",
    ("sigmaconnect-1", "r150"): "fe429c0d445758ac69fb67961d1ea6f39420484270a6a8d4432dcdd5641c568c",
    ("sigmaconnect-2", "default"): "ebfc2fc332115dbab0c7431b3b0025282663e83d9aead77f42d50474522ccc46",
    ("sigmaconnect-2", "r150"): "430e40d5bc26f865a8ccc5768f0ce81e4815d9f49094ddae67e16ae34a13ad9c",
    ("sigmaconnect-3", "default"): "1d669940ed974085c38ae787cc8429f3e0eb6c169572ce2bdd46c3bef372903f",
    ("sigmaconnect-3", "r150"): "c17b9b59148f64f00f7daf0b259a8ea815fd7dd99380f5cc02a30505d1441cc5",
    ("ann", "default"): "4306ebff8fff6a8d10018d8744d8858eab41e49e1b664be74c25adef78fbe754",
    ("ann", "r150"): "ef32fb1a4dfc78d23369e18ce89c44000817a2cda23f0ca8c66d2268a30d630c",
}


def ellipse_scene(rng, h, w, background):
    """Noisy background, two ellipses of each skin tone, and 1% impulse noise."""
    px = np.asarray(background, dtype=np.float64) + rng.normal(0, 6, (h, w, 3))
    yy, xx = np.mgrid[:h, :w]
    for gain in SKIN_GAINS * 2:
        cy, cx = rng.uniform(0.1, 0.9) * h, rng.uniform(0.1, 0.9) * w
        ry, rx = rng.uniform(0.05, 0.2) * h, rng.uniform(0.05, 0.2) * w
        inside = ((yy - cy) / ry) ** 2 + ((xx - cx) / rx) ** 2 <= 1.0
        px[inside] = SKIN * gain + rng.normal(0, 3, (int(inside.sum()), 3))
    impulse = rng.random((h, w)) < 0.01
    px[impulse] = rng.integers(0, 2, (int(impulse.sum()), 1)) * 255
    return np.clip(np.rint(px), 0, 255).astype(np.uint8)


def comb_scene(rng, h=1080, w=1920):
    """Teeth of period 8 columns, 3 to 5 wide, cut into segments of 4 to 20
    rows with 3-row gaps; each segment has its own skin tone and a few
    teeth touch their neighbours, so the spaces and the votes disagree."""
    px = np.zeros((h, w, 3))
    px[:] = (60, 90, 70)
    for x0 in range(0, w, 8):
        width = int(rng.integers(3, 6)) + (rng.random() < 0.05) * 4
        y = int(rng.integers(0, 8))
        while y < h:
            length = int(rng.integers(4, 21))
            px[y : y + length, x0 : x0 + width] = SKIN * rng.choice(SKIN_GAINS)
            y += length + 3
    impulse = rng.random((h, w)) < 0.002
    px[impulse] = SKIN
    return np.clip(np.rint(px), 0, 255).astype(np.uint8)


def write_ppm(path, pixels):
    h, w, _ = pixels.shape
    path.write_bytes(b"P6\n%d %d\n255\n" % (w, h) + pixels.tobytes())


def selector_model():
    """Picks RGB above a mean V of 0.6, YCbCr below 0.35, HSV between."""
    return MlpModel(
        w1=[[0, 0, 20, 0, 0, 0, 0, 0, 0], [0, 0, 20, 0, 0, 0, 0, 0, 0]],
        b1=[-12.0, -7.0],
        w2=[[2.0, 0.0], [0.0, 0.0], [0.0, -2.0]],
        b2=[0.0, 0.0, 0.0],
    )


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden")
    rng = np.random.default_rng(2013)
    names = []
    for i, (h, w, background) in enumerate(SCENES):
        names.append(f"scene{i}.ppm")
        write_ppm(root / names[-1], ellipse_scene(rng, h, w, background))
    names.append("comb.ppm")
    write_ppm(root / names[-1], comb_scene(rng))
    save_model(selector_model(), root / "model.json")
    for name, text in FILTERS.items():
        if text:
            (root / f"{name}.cfg").write_text(text)
    return root, names


@pytest.mark.parametrize("filt", FILTERS)
@pytest.mark.parametrize("case", CASES)
def test_segment_outputs_match_their_digest(corpus, monkeypatch, capsys, case, filt):
    root, names = corpus
    monkeypatch.chdir(root)  # the report lines hold the input paths as given
    out = f"out-{case}-{filt}"
    flags = [*CASES[case], "--out-dir", out]
    if FILTERS[filt]:
        flags += ["--filter-config", f"{filt}.cfg"]
    assert main(["segment", *flags, *names]) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode())
    for name in names:
        stem = name.removesuffix(".ppm")
        for kind in ("mask.pgm", "raw.pgm", "overlay.ppm"):
            digest.update((root / out / f"{stem}.{kind}").read_bytes())
    assert digest.hexdigest() == DIGESTS[case, filt]
