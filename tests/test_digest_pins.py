"""Report digests pinned per build: a refactor must leave every reported bit.

Four configs run in a child process with every BLAS pinned to one thread:
the acceptance config with and without ``tail``, one small strongly convex
SGD config and one small penalized-ERM config. Their digests must equal the
pins recorded for the key ``"<ARTIFACT_VERSION> numpy <version> simd
[<targets>] <BLAS as loaded>"``. The SIMD targets are those NumPy
dispatches on the host (``__cpu_dispatch__`` entries that
``__cpu_features__`` marks on): with AVX512 the logistic ``exp`` and
``log1p`` can round differently from libm, so the same NumPy and BLAS give
two sets of digests. The child runs once as the host dispatches and once
with ``X86_V4`` and the AVX512 targets turned off, and each run is checked
against the pins for its own key. With no pin for a key the test skips and
names the key, so a new build can be pinned by hand. The child runs again
with the BLAS on two threads and must give the same digests: no reported
value may depend on how the BLAS splits a reduction.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from test_acceptance import ACCEPTANCE_CONFIG

SRC = Path(__file__).resolve().parents[1] / "src"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# NumPy then runs its X86_V3 (AVX2) loops, whose float64 exp is libm's.
WITHOUT_AVX512 = {"NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR"}

LOGISTIC_DISTRIBUTION = {
    "dim": 4,
    "feature_bound": 1.0,
    "teacher": [1.0, 0, 0, 0],
    "mechanism": {"type": "logistic_teacher"},
}

CONFIGS = {
    "acceptance": ACCEPTANCE_CONFIG,
    "acceptance-tail": {**ACCEPTANCE_CONFIG, "tail": True},
    "sgd-strongly-convex": {
        "name": "sgd-pin",
        "algorithm": {
            "preset": "sgd-strongly-convex",
            "steps": {"mode": "multiple_of_n", "factor": 2},
            "step": "inverse_gamma_n",
            "projection_radius": 1.0,
            "gamma": 1.0,
        },
        "loss": "logistic",
        "distribution": LOGISTIC_DISTRIBUTION,
        "n_grid": [10, 20],
        "delta": 0.25,
        "replacements": 2,
        "trials": 20,
        "draws": 64,
        "center_replicates": 8,
        "coverage_n": 10,
        "tail": True,
        "seed": 7,
    },
    "rerm-lp": {
        "name": "rerm-pin",
        "algorithm": {"preset": "rerm-lp", "p": 1.5, "lam": 0.5},
        "loss": "logistic",
        "distribution": LOGISTIC_DISTRIBUTION,
        "n_grid": [10, 20],
        "delta": 0.25,
        "replacements": 2,
        "trials": 20,
        "draws": 64,
        "center_replicates": 8,
        "seed": 7,
    },
}

# Keyed "<ARTIFACT_VERSION> numpy <version> <BLAS as loaded>" up to report-6,
# and "<ARTIFACT_VERSION> numpy <version> simd [<targets>] <BLAS as loaded>"
# from report-7 on.
PINS = {
    "report-2 numpy 2.4.6 OpenBLAS 0.3.31.188.0 USE64BITINT DYNAMIC_ARCH NO_AFFINITY "
    "SkylakeX MAX_THREADS=64": {
        "acceptance": "a02b259b10f375fa0f6b67446b6cf1fc375a41fffd8e7d1bac7400c0cd75fa73",
        "acceptance-tail": "e3d1f134ef1cc5f9e77774a4358a427734bca6760a4bdeaf7bf9d02390020d6f",
        "sgd-strongly-convex": "c8faacd5e227fa595a3b9c93836d376ae1187481ca009e218d4b3915fe14066c",
        "rerm-lp": "624e7add3adc230fcaffdc64f6906955e53cb763b1526b2913404d4277139a13",
    },
    # The elementwise prox moved the rerm-lp fits; the other three configs
    # moved only through the version string.
    "report-3 numpy 2.4.6 OpenBLAS 0.3.31.188.0 USE64BITINT DYNAMIC_ARCH NO_AFFINITY "
    "SkylakeX MAX_THREADS=64": {
        "acceptance": "284198a432f9ecdd9a8015f7fe6fd842ca3427e8e7e7949f17c48f8229a01c24",
        "acceptance-tail": "f76ba4fd3171ab742edb52593e3875ed80419cb9c0bee0c1c873ccb0f95261fd",
        "sgd-strongly-convex": "934d59421596847f7e74f3b2d7775da2182c74cde4c3b0d2c0f9633793853ed6",
        "rerm-lp": "349a21f49f460165535426047bc6f016059aad3be816a5be13c7e62bfe4e69c0",
    },
    # One sign stream per batch moved records[].rademacher.{mean,std_error};
    # nothing else moved but the version string.
    "report-4 numpy 2.4.6 OpenBLAS 0.3.31.188.0 USE64BITINT DYNAMIC_ARCH NO_AFFINITY "
    "SkylakeX MAX_THREADS=64": {
        "acceptance": "0cb2f01b2b75e78eaf5efc5b054e6176422c717a7be18f556b098181842ca35e",
        "acceptance-tail": "939871cee140f5623e714e50f992196556e113511caeb4d4a8d7e8f14b993469",
        "sgd-strongly-convex": "de1641875128b837780942eafcc497ac05e9a4dc47c4cb8c5eda50211bb5506a",
        "rerm-lp": "c9064e6875d6655a8a17c53280a3e15b3cb6311f28d3fce8ad100ca1254ce7ea",
    },
    # The rank-two ridge twins moved records[].stability and
    # rate.slope_alpha_hat; the in-place SGD step moved the SGD fits and
    # what is computed from them; rerm-lp moved only through the version.
    "report-5 numpy 2.4.6 OpenBLAS 0.3.31.188.0 USE64BITINT DYNAMIC_ARCH NO_AFFINITY "
    "SkylakeX MAX_THREADS=64": {
        "acceptance": "954f3c0f70de2d33bfc5b95dab72dee91de27e8beb832bfd93c96d10325af6f8",
        "acceptance-tail": "064a5b35c3be2cc543b0995df16b488ecffd31f851fb45b9552c145ee145bce6",
        "sgd-strongly-convex": "7aa30085f0d0b63e6ce610641ac87779370190881cdb41cc4ab96218cac6bcd9",
        "rerm-lp": "5b48f6ab99f07a035d676d2a19aefe9a5ee068e9e27cc457e9718aac5b8b2d83",
    },
    # One replacement pool per record and one key per replicate sample moved
    # every stochastic field of all four configs.
    "report-6 numpy 2.4.6 OpenBLAS 0.3.31.188.0 USE64BITINT DYNAMIC_ARCH NO_AFFINITY "
    "SkylakeX MAX_THREADS=64": {
        "acceptance": "33d6eb7ef4113b395fce2dc28e16005d832f4e7f227f6a0a667f496733250745",
        "acceptance-tail": "972c299947bed72b6f235887566974ca6fa2033bbcacd088439a1541a104c32f",
        "sgd-strongly-convex": "10b6e809773b1760e1b8f2d7d0dcffb7f24551c4c4c8b13989555f5867e7f632",
        "rerm-lp": "5221651e00a11fd8239645d1537697a480d25a7c127e72cad8c4ac89b1fd4669",
    },
    # The split softplus moved the logistic loss values behind the coverage
    # gaps of sgd-strongly-convex; the other three configs moved only through
    # the version string. The two SIMD levels differ on both logistic configs
    # (the sigmoid's exp as well). Each level was checked on one and two BLAS
    # threads.
    "report-7 numpy 2.4.6 simd [X86_V3 X86_V4 AVX512_ICL AVX512_SPR] OpenBLAS 0.3.31.188.0 "
    "USE64BITINT DYNAMIC_ARCH NO_AFFINITY SkylakeX MAX_THREADS=64": {
        "acceptance": "c5527c5891086eadb2ff09c9ff23252c3d1d0db41d2fe3747254752e4435e5fe",
        "acceptance-tail": "cf9f038351257f61e8fb1b3030227edc1a1d0b621cd1237f31fc3ed95720c2c2",
        "sgd-strongly-convex": "98331748194f31f720e18f1991b072f893fb7d2be833cf5e6abbf6e0f785ca22",
        "rerm-lp": "7f45dbb5f459b6b834abde2b377d7ff54868d49abdc574c0f343aa3873bcafaa",
    },
    "report-7 numpy 2.4.6 simd [X86_V3] OpenBLAS 0.3.31.188.0 "
    "USE64BITINT DYNAMIC_ARCH NO_AFFINITY SkylakeX MAX_THREADS=64": {
        "acceptance": "c5527c5891086eadb2ff09c9ff23252c3d1d0db41d2fe3747254752e4435e5fe",
        "acceptance-tail": "cf9f038351257f61e8fb1b3030227edc1a1d0b621cd1237f31fc3ed95720c2c2",
        "sgd-strongly-convex": "9bf0260715d1c23e4b713fa6334c0b5563439b58ef675946831df052ddb7893e",
        "rerm-lp": "bcb2c1f008eea909ab4e5a0b0ce9ebe88eb92cc9219b92dae3edacc834735262",
    },
    # Exact population risks replaced the Monte-Carlo ones behind the gaps of
    # sgd-strongly-convex and rerm-lp; the two acceptance configs (squared
    # loss with linear noise on the sphere, already exact) moved only through
    # the version string. Each level was checked on one and two BLAS threads.
    "report-8 numpy 2.4.6 simd [X86_V3 X86_V4 AVX512_ICL AVX512_SPR] OpenBLAS 0.3.31.188.0 "
    "USE64BITINT DYNAMIC_ARCH NO_AFFINITY SkylakeX MAX_THREADS=64": {
        "acceptance": "b887a42eee8c295b61e62ceeba0349e2362065026144f28ed96d271b12e1eaed",
        "acceptance-tail": "76c8164fbca18f820ec662969b2ebc172555194a2e582fdf7c07fa1fc54c49fc",
        "sgd-strongly-convex": "f665c01c55743c0b08bd6e6b55a45f0187ceff7bc556163af47b2c41c5f525fc",
        "rerm-lp": "eadf8304bf95cbddbc3be5cffe8917e939bbd9e04d14d18d4dbb36b9c813fecf",
    },
    "report-8 numpy 2.4.6 simd [X86_V3] OpenBLAS 0.3.31.188.0 "
    "USE64BITINT DYNAMIC_ARCH NO_AFFINITY SkylakeX MAX_THREADS=64": {
        "acceptance": "b887a42eee8c295b61e62ceeba0349e2362065026144f28ed96d271b12e1eaed",
        "acceptance-tail": "76c8164fbca18f820ec662969b2ebc172555194a2e582fdf7c07fa1fc54c49fc",
        "sgd-strongly-convex": "4506b43d890a26370986d83a42983682d5411aaec6f94eeb8ccd0b5d457d0bd3",
        "rerm-lp": "753f5a3186beb3df4e6961ecd3b24536129e3530a8bf8d3bdd1ebf24da8ae03f",
    },
}

# Reads the configs as JSON on stdin and prints {"key": ..., "digests": ...}.
CHILD = r"""
import ctypes, json, sys
import numpy as np
from stabilab import ExperimentConfig, report_digest, run_experiment
from stabilab.lab import ARTIFACT_VERSION

def blas():
    # The build string of the OpenBLAS numpy loaded, which names the kernel
    # family picked at run time; the build-time string when it cannot be asked.
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line})
    except OSError:
        paths = []
    symbols = ("scipy_openblas_get_config64_", "openblas_get_config64_", "openblas_get_config")
    for path in paths:
        for symbol in symbols:
            fn = getattr(ctypes.CDLL(path), symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_char_p
                return " ".join(fn().decode().split())
    build = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return f"{build['name']} {build['version']} (build)"

def simd():
    # The SIMD targets NumPy dispatches its loops to on this host.
    try:
        from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    except ImportError:  # NumPy 1.x
        from numpy.core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    return " ".join(t for t in __cpu_dispatch__ if __cpu_features__.get(t))

configs = json.load(sys.stdin)
digests = {
    name: report_digest(run_experiment(ExperimentConfig.from_dict(raw)))
    for name, raw in configs.items()
}
key = f"{ARTIFACT_VERSION} numpy {np.__version__} simd [{simd()}] {blas()}"
print(json.dumps({"key": key, "digests": digests}))
"""


def _run_child(threads: str, extra_env=None) -> dict:
    env = {**os.environ, **{var: threads for var in THREAD_VARS}, **(extra_env or {})}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", CHILD],
        input=json.dumps(CONFIGS),
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


@pytest.fixture(scope="module")
def one_thread() -> dict:
    return _run_child("1")


def _check_pins(run: dict) -> None:
    pins = PINS.get(run["key"])
    if pins is None:
        pytest.skip(f"no digest pins for {run['key']!r}: {run['digests']}")
    assert run["digests"] == pins


def test_report_digests_match_the_pins_for_this_build(one_thread):
    _check_pins(one_thread)


def test_report_digests_match_the_pins_without_avx512():
    _check_pins(_run_child("1", WITHOUT_AVX512))


def test_report_digests_do_not_depend_on_blas_threads(one_thread):
    assert _run_child("2")["digests"] == one_thread["digests"]
