import errno
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import brauercell
from brauercell.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def test_basis_split_example(capsys):
    code, out = run(capsys, "basis", "--flavor", "symplectic", "--r", "2",
                    "--N", "1", "--split")
    assert code == 0
    data = json.loads(out)
    assert len(data["entries"]) == 3
    assert sum(e["kernel"] for e in data["entries"]) == 1


def test_basis_symmetric_dual(capsys):
    code, out = run(capsys, "basis", "--flavor", "symmetric", "--r", "3", "--dual")
    assert code == 0
    assert len(json.loads(out)["entries"]) == 6


def test_cap_exit_code(capsys):
    code, _ = run(capsys, "basis", "--flavor", "symplectic", "--r", "99", "--N", "1")
    assert code == 2


def test_usage_errors(capsys):
    assert main(["certify", "--flavor", "symplectic", "--r", "2"]) == 1  # no N
    assert main(["certify", "--flavor", "orthogonal", "--r", "2", "--N", "2",
                 "--field", "Fp", "--p", "2"]) == 1
    assert main(["certify", "--flavor", "nosuch", "--r", "2", "--N", "1"]) == 1
    assert main(["dims", "--flavor", "permutation", "--r", "2", "--N", "1"]) == 1
    assert main(["nosuchcommand"]) == 1
    assert main(["certify", "--flavor", "symplectic", "--r", "2", "--N", "1",
                 "--jobs", "2"]) == 1
    assert main(["certify", "--flavor", "symplectic", "--r", "2", "--N", "1",
                 "--format", "table"]) == 1
    assert main(["basis", "--flavor", "symplectic", "--r", "2",
                 "--max-tensor-dim", "16"]) == 1
    # --p without --field Fp would be ignored
    assert main(["certify", "--flavor", "symplectic", "--r", "2", "--N", "1",
                 "--p", "5"]) == 1
    assert "--p is only used with --field Fp" in capsys.readouterr().err
    # a prime (2^61 - 1) past the --p bound, rejected before trial division
    assert main(["certify", "--flavor", "symplectic", "--r", "2", "--N", "1",
                 "--field", "Fp", "--p", "2305843009213693951"]) == 1
    assert "--p must be below" in capsys.readouterr().err
    # --N without --split would be ignored
    assert main(["basis", "--flavor", "symplectic", "--r", "2", "--N", "9"]) == 1
    assert capsys.readouterr().err == "error: --N is only used with --split\n"


def test_basis_split_rejects_dual(capsys):
    """The split basis has one cellular structure per flavor, so --dual
    beside --split is a usage error rather than ignored."""
    argv = ["basis", "--flavor", "symplectic", "--r", "3", "--N", "1", "--split", "--dual"]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --dual is not used with --split\n"


def test_certify_exit_codes(capsys):
    code, out = run(capsys, "certify", "--flavor", "symplectic", "--r", "3", "--N", "1")
    assert code == 0
    data = json.loads(out)
    assert data["pass"] is True
    checks = {c["name"]: c for c in data["sections"]["split_basis"]["checks"]}
    assert checks["image rank over Q = sum of squared permissible path counts"]["got"] == 5
    code, out = run(capsys, "certify", "--flavor", "symmetric", "--r", "3", "--N", "2")
    assert code == 0
    code, out = run(capsys, "certify", "--flavor", "orthogonal", "--r", "2", "--N", "1")
    assert code == 0
    data = json.loads(out)
    assert data["pass"] is True


def test_certify_symmetric_honours_max_r(capsys):
    """The symmetric certificate reads the basis built under --max-r, so r=7
    runs when the cap admits it."""
    code, out = run(capsys, "certify", "--flavor", "symmetric", "--r", "7", "--N", "2",
                    "--max-r", "7")
    assert code == 0
    data = json.loads(out)
    assert data["pass"] is True
    checks = {c["name"]: c for c in data["sections"]["harterich"]["checks"]}
    assert checks["image rank over Q"]["got"] == 429


def test_certify_failure_exit_code(capsys, monkeypatch):
    import brauercell.cli as cli
    from brauercell.sft import Certificate

    def fake_certify(split, max_tensor_dim=65536, fields=()):
        cert = Certificate({"flavor": "symmetric", "r": split.r, "N": split.n})
        cert.add("forced failure", 1, 2)
        return cert

    monkeypatch.setattr("brauercell.sft.certify_sft", fake_certify)
    code, out = run(capsys, "certify", "--flavor", "symmetric", "--r", "2", "--N", "2")
    assert code == 3
    assert json.loads(out)["pass"] is False


def test_internal_arithmetic_error_exit_code(capsys, monkeypatch):
    # an exactness failure exits 3; running out of memory exits 2, as a cap
    for exc, code, line in [(ArithmeticError("forced exactness failure"), 3,
                             "internal error: forced exactness failure"),
                            (MemoryError(), 2, "cap exceeded: out of memory")]:
        def broken_certify(split, max_tensor_dim=65536, fields=(), exc=exc):
            raise exc

        monkeypatch.setattr("brauercell.sft.certify_sft", broken_certify)
        got = main(["certify", "--flavor", "symmetric", "--r", "2", "--N", "2"])
        captured = capsys.readouterr()
        assert got == code
        assert captured.out == ""
        assert captured.err.splitlines() == [line]


def test_out_of_memory_while_rendering_exit_code(capsys, monkeypatch):
    # the payload is formatted inside the handled block too: exit 2, one
    # line on stderr and nothing on stdout, as for the computation
    from brauercell import cli

    def broken_render(payload, fmt):
        raise MemoryError

    monkeypatch.setattr(cli, "render", broken_render)
    got = main(["dims", "--flavor", "symmetric", "--N", "2", "--r", "2"])
    captured = capsys.readouterr()
    assert got == 2
    assert captured.out == ""
    assert captured.err.splitlines() == ["cap exceeded: out of memory"]


def test_murphy_exactness_failure_exit_code(capsys, monkeypatch):
    from fractions import Fraction

    from brauercell import murphy

    generator = murphy.brauer_cell_generator
    monkeypatch.setattr(murphy, "brauer_cell_generator",
                        lambda *args: generator(*args).scale(Fraction(1, 2)))
    murphy._cached_basis.cache_clear()
    code = main(["basis", "--flavor", "symplectic", "--r", "2"])
    murphy._cached_basis.cache_clear()
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith("internal error: ")


def test_basis_split_symmetric(capsys):
    from brauercell.murphy import murphy_basis

    code, out = run(capsys, "basis", "--flavor", "symmetric", "--r", "4", "--N", "2",
                    "--split")
    assert code == 0
    entries = json.loads(out)["entries"]
    assert len(entries) == 24
    assert sum(e["kernel"] for e in entries) == 10
    basis = murphy_basis(4, "symmetric-dual")
    assert [e["element"] for e in entries] == [
        basis.elements[key].to_json() for key in basis.index]
    assert all(e["kernel"] == (len(e["vertex"]["lam"]) > 2) for e in entries)


def test_dims_symplectic_catalan(capsys):
    code, out = run(capsys, "dims", "--flavor", "symplectic", "--N", "1", "--r", "4")
    assert code == 0
    rows = json.loads(out)["rows"]
    assert [r["sum_squared_permissible_paths"] for r in rows] == [1, 2, 5, 14]
    assert [r["image_rank"] for r in rows] == [1, 2, 5, 14]


def test_dims_table_format(capsys):
    code, out = run(capsys, "dims", "--flavor", "symmetric", "--N", "2", "--r", "3",
                    "--format", "table")
    assert code == 0
    assert out.splitlines()[0] == "flavor=symmetric N=2"
    assert out.strip().splitlines()[-1].split() == ["3", "6", "5", "5"]


def test_dims_respects_tensor_cap(capsys):
    code, out = run(capsys, "dims", "--flavor", "symplectic", "--N", "2", "--r", "3",
                    "--max-tensor-dim", "16")
    assert code == 0
    rows = json.loads(out)["rows"]
    assert rows[0]["image_rank"] == 1 and rows[1]["image_rank"] == 3
    assert rows[2]["image_rank"] is None


def test_determinism(tmp_path, capsys):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    for out in (out1, out2):
        code = main(["certify", "--flavor", "symplectic", "--r", "2", "--N", "1",
                     "--out", str(out)])
        assert code == 0
    capsys.readouterr()
    assert out1.read_bytes() == out2.read_bytes()


def test_out_replaces_target_atomically(tmp_path, capsys):
    argv = ["certify", "--flavor", "symplectic", "--r", "2", "--N", "1"]
    code, printed = run(capsys, *argv)
    assert code == 0
    target = tmp_path / "cert.json"
    target.write_text("stale\n" * 10000)
    assert main([*argv, "--out", str(target)]) == 0
    capsys.readouterr()
    assert target.read_bytes() == printed.encode()
    assert os.listdir(tmp_path) == ["cert.json"]


def test_out_into_missing_directory_is_a_usage_error(tmp_path, capsys, monkeypatch):
    import brauercell.cli as cli

    def never(args):
        raise AssertionError("the command ran")

    monkeypatch.setattr(cli, "cmd_certify", never)
    target = tmp_path / "missing" / "cert.json"
    code = main(["certify", "--flavor", "orthogonal", "--r", "2", "--N", "1",
                 "--out", str(target)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.splitlines() == [
        f"error: cannot write --out {target}: No such file or directory"]
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("name", ["outdir", "outdir" + os.sep, "absent" + os.sep])
def test_out_naming_a_directory_is_a_usage_error(tmp_path, capsys, monkeypatch, name):
    """An --out that is an existing directory, or that ends with a path
    separator, is rejected before any computation."""
    import brauercell.cli as cli

    def never(args):
        raise AssertionError("the command ran")

    monkeypatch.setattr(cli, "cmd_certify", never)
    (tmp_path / "outdir").mkdir()
    target = str(tmp_path) + os.sep + name
    code = main(["certify", "--flavor", "symplectic", "--r", "5", "--N", "1",
                 "--out", target])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.splitlines() == [f"error: cannot write --out {target}: Is a directory"]
    assert os.listdir(tmp_path) == ["outdir"] and os.listdir(tmp_path / "outdir") == []


def test_out_write_failure_is_one_error_line(tmp_path, capsys, monkeypatch):
    # renaming the written file onto the target fails
    def deny(src, dst):
        raise PermissionError(errno.EACCES, "Permission denied")

    monkeypatch.setattr(os, "replace", deny)
    target = tmp_path / "cert.json"
    code = main(["certify", "--flavor", "symplectic", "--r", "2", "--N", "1",
                 "--out", str(target)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.splitlines() == [
        f"error: cannot write --out {target}: Permission denied"]
    assert os.listdir(tmp_path) == []


def test_field_fp_check(capsys):
    code, out = run(capsys, "certify", "--flavor", "symplectic", "--r", "2",
                    "--N", "1", "--field", "Fp", "--p", "3")
    assert code == 0
    names = [c["name"] for c in json.loads(out)["sections"]["split_basis"]["checks"]]
    assert "image rank over F_3" in names


def test_composite_p_rejected(capsys):
    assert main(["certify", "--flavor", "symplectic", "--r", "2", "--N", "1",
                 "--field", "Fp", "--p", "6"]) == 1
    capsys.readouterr()


def test_certify_under_python_O():
    """Exactness checks are raises, not asserts, so -O changes nothing."""
    src = str(Path(brauercell.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    argv = ["-m", "brauercell.cli", "certify", "--flavor", "symplectic", "--r", "3",
            "--N", "1"]
    plain, opt = (subprocess.run([sys.executable, *flags, *argv], env=env,
                                 capture_output=True, timeout=300)
                  for flags in ([], ["-O"]))
    assert plain.returncode == opt.returncode == 0
    assert opt.stdout == plain.stdout


def _run_limited(argv, mem_bytes):
    """The CLI in a fresh interpreter under an RLIMIT_AS of ``mem_bytes``."""
    import resource

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (mem_bytes, mem_bytes))

    src = str(Path(brauercell.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-m", "brauercell.cli", *argv], env=env,
                          capture_output=True, timeout=300, preexec_fn=limit)


# Starts the CLI by posix_spawn and prints its exit code and peak RSS (KiB)
# from os.wait4.  A process's ru_maxrss carries over exec from the memory
# image that exec replaced, so the job must be spawned by this small
# interpreter, not by the test process, whose high-water mark it would read.
_PEAK_HELPER = """
import os, sys
pid = os.posix_spawn(sys.executable, [sys.executable, "-m", "brauercell.cli", *sys.argv[1:]],
                     os.environ, file_actions=[(os.POSIX_SPAWN_OPEN, 1, os.devnull,
                                                os.O_WRONLY, 0)])
_, status, usage = os.wait4(pid, 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)
"""


def test_symplectic_r5_n3_certificate_peaks_below_72_mb():
    """``certify`` ranks its permissible lines in place, with no copy, and
    keeps each diagram's image as two arrays over its nonzero rows: this
    job peaks near 55 MB, where copying the lines before the Q rank took it
    to 82 MB."""
    src = str(Path(brauercell.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    argv = ["certify", "--flavor", "symplectic", "--r", "5", "--N", "3"]
    helper = subprocess.run([sys.executable, "-c", _PEAK_HELPER, *argv], env=env,
                            capture_output=True, text=True, timeout=300)
    assert helper.returncode == 0, helper.stderr
    code, peak_kib = map(int, helper.stdout.split())
    assert code == 0
    assert peak_kib < 72 * 1024


def test_wide_symmetric_inputs_fit_in_512_mib():
    """9^5 = 59049 words: both runs read 52 orbit rows, where building every
    row ran out of memory under 2 GiB."""
    dims = _run_limited(["dims", "--flavor", "symmetric", "--N", "9", "--r", "5"], 512 << 20)
    assert dims.returncode == 0, dims.stderr
    assert [row["image_rank"] for row in json.loads(dims.stdout)["rows"]] == [1, 2, 6, 24, 120]
    cert = _run_limited(["certify", "--flavor", "symmetric", "--r", "5", "--N", "9"], 512 << 20)
    assert cert.returncode == 0, cert.stderr
    assert json.loads(cert.stdout)["pass"] is True


def test_symplectic_n4_certificate_fits_in_1_gib():
    """8^5 = 32768 words: the certificate reads 256 orbit rows, where
    building every diagram's image on all rows ran out of memory under
    2 GiB."""
    cert = _run_limited(["certify", "--flavor", "symplectic", "--r", "5", "--N", "4"], 1 << 30)
    assert cert.returncode == 0, cert.stderr
    assert json.loads(cert.stdout)["pass"] is True


# sha256 of the stdout of certify, recorded before the Gram and JM matrices
# moved to the cell-row functionals; the certificate bytes must not drift.
CERTIFY_STDOUT_SHA256 = {
    "symplectic --r 4 --N 1": "16f79a6a4dcd63dd53e730162f73b28fabfdca7806748640ea0d9ba08ac9f1de",
    "symplectic --r 4 --N 2": "4a44f8d5116c9d59bddc6e9683203103d4ac36c65fc57dee010ca1fee6c96e8d",
    "symplectic --r 5 --N 1": "a853113a64701ddeec7db829786b4f018d00a25e7129b56485da5287b9a9e882",
    "orthogonal --r 4 --N 1": "b2be2edbd7eb2c8387789f59a1f868bdceff5475e70781c73ac35337eda1b616",
    "orthogonal --r 4 --N 2": "3a830cadc475bedbf5d08fbb88a02facc4f74f2ba9fbdb959fb927c9603db1c6",
    "orthogonal --r 5 --N 1": "7d4aad4cdc0d57142c87475bbf892bc46d17143b6d02f0726903bdca19576696",
    "orthogonal --r 5 --N 2": "622d72582ef8237551ea3b1e6c1e5e27646e1cee4674fe9bdbaa1f8d5a14a626",
    "symmetric --r 4 --N 1": "de2c1d3b21951a1df167fd2382f7c9d8041f10489355c9cc36b07e7ca332da0f",
    "symmetric --r 4 --N 2": "c943cc2c055c61b216aceb03eb00b3da54df888340bfe1be32b0eb7a8c85c11c",
    "symmetric --r 5 --N 1": "d9cc5bbd47e148d077a2095da77a0c1d9ec31b2881e0721ec333017ff0aac58e",
    "symmetric --r 5 --N 2": "17d4613be7e5e6a2f9ee8239f330e04625149b10422c8d6f5448154e1f1ed4aa",
    "orthogonal --r 4 --N 2 --field Fp --p 5":
        "cf580fe7a75d591e79243a447ddb34878c27790677d902e26dee17ee2b66e675",
    "orthogonal --r 4 --N 3": "0a848e2ef551bd8cb4da28b0307708fcf75d7b0fa58201f063baaedb1a4cda12",
    "symplectic --r 4 --N 3": "3f4ffc265a30da52e45c046dafec054e065eace6617248ac11db16c1494a2e70",
    "symplectic --r 5 --N 2": "cae70d848f69b951d108241a5f22fd4f0fd2249f9f49000015fae054f0a2c120",
    # the only pin of r=5 seminormal records
    "orthogonal --r 5 --N 2 --seminormal-cap 5":
        "a4348297e66e4da17cedfabb5bfd66af45f57c92d77a1b4035026d71f24c2907",
    # the rest of the perfbench certify grid, recorded before diagram
    # products were interned
    "symmetric --r 5 --N 3": "59f4c53b34df90b69ed711e37a9a4b8cf0af95e54621d73cc7ef43b1d9f77261",
    "symmetric --r 6 --N 2 --max-r 6":
        "183d012c526db474ef35f6472f55be5ca6f204cb4bdd533e9907cf836f695536",
    "symplectic --r 5 --N 1 --field Fp --p 3":
        "010dd545fe9fb3317f2cc74c27cfc0453cec02a95ef4448972578c3656826671",
    "symmetric --r 5 --N 3 --field Fp --p 7":
        "279969dae6f79b5ee5264ab5d8869627b44771a7d82aa4fae58c1ddc8667737b",
    # the largest r=4 seminormal modules, recorded before the seminormal
    # checks became integer identities
    "symplectic --r 4 --N 4": "1c600320ead7a54183c78d209bef2d95df5ae51f8638754cd5e1ba324c1b6ffc",
    "orthogonal --r 4 --N 4": "548f9c9903b2f367d6b61a5e61e5575d59b099b9d7e6072149719733d1bca334",
    # the three F_p argv of the perfbench certify grid at one more prime,
    # recorded before image_rank read diagrams
    "symplectic --r 5 --N 1 --field Fp --p 13":
        "454d859f87f27a69e857cae253302db7d0f458a5b770133ba7093e3bf8e3cc20",
    "orthogonal --r 4 --N 2 --field Fp --p 13":
        "ee87f89c6d85e802d8d3766e2fc78b1c7f231aee39004e11fa5621129bb5afe7",
    "symmetric --r 5 --N 3 --field Fp --p 13":
        "353d383172cdf77ca5dba46315273c6f2167696a1c0b202c579805cd16bb51e6",
    # the same three argv at the other primes of the perfbench grid,
    # recorded before the F_p line was decided against the count
    "symplectic --r 5 --N 1 --field Fp --p 5":
        "030167d37103fa9dfdac42c315982a2cbac799646d5e0275dd7dae24480b802f",
    "symplectic --r 5 --N 1 --field Fp --p 7":
        "6a29ab7b6845ddc86e8ca769a86f496f90bead8b3ee028826d03ef4530b01a4c",
    "symplectic --r 5 --N 1 --field Fp --p 11":
        "fd896619b6c8d21aeb3d245a396e08e813db73a6c777b3f7e72a81640ecca7a7",
    "orthogonal --r 4 --N 2 --field Fp --p 3":
        "978de78f781fdf10f2fb681365cd54c275237ece04ead8682071a77cfc2e25a1",
    "orthogonal --r 4 --N 2 --field Fp --p 7":
        "b23fcac773f594ffeb5a1918fda4e84ba288d40ad20059f54b49e52ef8f55a82",
    "orthogonal --r 4 --N 2 --field Fp --p 11":
        "8e22e84a18411581d869aabcf8d2f9562fac389443dbacc043848a81a82726d8",
    "symmetric --r 5 --N 3 --field Fp --p 3":
        "93254d5dca40729d1af67ea7b39b8cc998c082e4367f586c0375dfeb47fd8443",
    "symmetric --r 5 --N 3 --field Fp --p 5":
        "8c2633b8a5a29c68b7824180b477b9c8ccbafdadbbbf7097f10d4d5f330af444",
    "symmetric --r 5 --N 3 --field Fp --p 11":
        "99312708b9831f870abce657e321644ea3ca31a84d3dc667b6a2e6ab033439ca",
    # the two r=6 Brauer certificates of the acceptance grid, the only pins
    # of a Brauer Gram at r=6, recorded before the Gram was formed from the
    # distinct diagrams of d_s d_t*
    "symplectic --r 6 --N 1 --max-r 6":
        "7bc7600a9d2eed97c81d4cde8fcb0d6d3e42be12d9e85a6236addc765a30d30c",
    "orthogonal --r 6 --N 2 --max-r 6":
        "6722f23b7ef62fbe68924e0f054654512f14fb8565560b445096c5415e407579",
    # the one pin of the symmetric line set at r <= N (no pair count line
    # and no ideal line), recorded while S_r had its own certificate body
    "symmetric --r 4 --N 4": "6038d59f3d1774835ef857b1fa27a94ffcd34dfce223bf8ce7ba521e26307472",
}


@pytest.mark.parametrize("argv", list(CERTIFY_STDOUT_SHA256))
def test_certify_stdout_pinned(capsys, argv):
    code, out = run(capsys, "certify", "--flavor", *argv.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == CERTIFY_STDOUT_SHA256[argv]


# sha256 of the stdout of dims on the perfbench dims grid, recorded before
# image ranks were taken by columns.
DIMS_STDOUT_SHA256 = {
    "symplectic --N 1 --r 5": "a4e0c498a79e2f943ab5ecc489f81521b623bb42730533a6e29a751cb8003bb5",
    "symplectic --N 2 --r 4": "41364d4cfc5c00f5922bff1db4251bdacc6f838054e14fb3b1b70090fbca713e",
    "symplectic --N 3 --r 4": "75af3c461e7cb15c9d755bfea5ab8c545311f97dbe9870f184b3b6e53688d875",
    "orthogonal --N 2 --r 5": "6f96bdfa12ac2eb12471e076f787405bb02508d9865c9a3003ef43c162bb0374",
    "orthogonal --N 5 --r 4": "5df5fa379fb02f3003e58260ac77ede306f601983e23f77d775becc3f4e4854d",
    "orthogonal --N 6 --r 4": "cb9de4cf35292bcf125c2119440425790fde8f4407c398393489b052a6a28120",
    "symmetric --N 3 --r 5": "1897c1032277ee148449478c0fc8bf16ef6a8b124962f9f3a395db65b24f0744",
    "symmetric --N 4 --r 5": "5027cb62437628b239085ebbdb6facffa0ab39e3cbcb39fd2f2b981a439f68b7",
    "symplectic --N 2 --r 4 --format table":
        "2d2735557e71148bf230bc7712dbf843b05d9eda4b715876239c75298d5a5b0a",
}


@pytest.mark.parametrize("argv", list(DIMS_STDOUT_SHA256))
def test_dims_stdout_pinned(capsys, argv):
    code, out = run(capsys, "dims", "--flavor", *argv.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == DIMS_STDOUT_SHA256[argv]


# sha256 of the stdout of basis --split, recorded while the symmetric group
# still had its own --split branch in the CLI.
BASIS_SPLIT_STDOUT_SHA256 = {
    "symplectic --r 5 --N 1": "1379e3d825c781e354020b6bca67fdd33561bbe956171f672d947c35723eadbe",
    "orthogonal --r 5 --N 2": "c6f14d30c1abfc4769bc8023a5cea033a3837315c9f22f2e4fc5e0653d56a1c8",
    "symmetric --r 4 --N 2": "10029a44c2031f78a968899a0b26a3fedbcfd9d40b00ec6b2e21a326002f150a",
    "symmetric --r 5 --N 3": "fba3de365a41e3d96db70d5f3c2b90e643de147d1734feafbf9f011fc64eaabe",
    "symmetric --r 6 --N 2 --max-r 6":
        "281b401055f52ac9f214022d3ad49db71ffaedffdaca6c8459c0e15cdee3d75a",
}


@pytest.mark.parametrize("argv", list(BASIS_SPLIT_STDOUT_SHA256))
def test_basis_split_stdout_pinned(capsys, argv):
    code, out = run(capsys, "basis", "--split", "--flavor", *argv.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == BASIS_SPLIT_STDOUT_SHA256[argv]


def test_dims_loads_no_cellular_basis_modules():
    """dims needs the tensor side only: a fresh interpreter running it never
    imports sft, murphy, seminormal or dataclasses."""
    src = str(Path(brauercell.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = ("import sys\n"
            "from brauercell.cli import main\n"
            "main(['dims', '--flavor', sys.argv[1], '--N', '2', '--r', '3'])\n"
            "sys.stderr.write('modules: ' + ' '.join(sorted(sys.modules)) + '\\n')\n")
    for flavor in ("symplectic", "orthogonal", "symmetric"):
        proc = subprocess.run([sys.executable, "-c", code, flavor], env=env,
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        loaded = set(proc.stderr.rsplit("modules: ", 1)[1].split())
        assert "brauercell.tensorrep" in loaded
        assert not loaded & {"brauercell.sft", "brauercell.murphy",
                             "brauercell.seminormal", "dataclasses"}


def test_certify_loads_no_dataclasses():
    """A fresh interpreter running certify never imports dataclasses (nor
    inspect or ast, which it would pull in)."""
    src = str(Path(brauercell.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = ("import sys\n"
            "from brauercell.cli import main\n"
            "main(['certify', '--flavor', sys.argv[1], '--N', '1', '--r', '3'])\n"
            "sys.stderr.write('modules: ' + ' '.join(sorted(sys.modules)) + '\\n')\n")
    for flavor in ("symplectic", "orthogonal", "symmetric"):
        proc = subprocess.run([sys.executable, "-c", code, flavor], env=env,
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        loaded = set(proc.stderr.rsplit("modules: ", 1)[1].split())
        assert "brauercell.sft" in loaded
        assert not loaded & {"dataclasses", "inspect", "ast"}


@pytest.mark.parametrize("flavor,r,n", [("symplectic", 3, 1), ("symplectic", 4, 2),
                                        ("orthogonal", 4, 2), ("orthogonal", 3, 1)])
def test_certify_builds_idempotents_at_permissible_vertices_only(capsys, monkeypatch,
                                                                 flavor, r, n):
    """gz_idempotents runs once per permissible vertex and never at another;
    every vertex still has its seminormal record."""
    import brauercell.seminormal as seminormal
    from brauercell.sft import SplitBasis
    called = []
    gz_idempotents = seminormal.gz_idempotents
    monkeypatch.setattr(seminormal, "gz_idempotents",
                        lambda basis, v: called.append(v) or gz_idempotents(basis, v))
    code, out = run(capsys, "certify", "--flavor", flavor, "--r", str(r), "--N", str(n))
    assert code == 0
    split = SplitBasis(r, n, flavor)
    permissible = [v for v in split.basis.vertices if split.perm_pred(v)]
    assert called == permissible
    assert len(permissible) < len(split.basis.vertices)
    records = json.loads(out)["sections"]["seminormal"]
    assert len(records) == len(split.basis.vertices)
    reason = "vertex not permissible: no quotient cell survives"
    assert [rec["reason"] == reason for rec in records] == [
        not split.perm_pred(v) for v in split.basis.vertices]


def test_certify_builds_module_vectors_where_read_only(capsys, monkeypatch):
    """certify builds a split module vector once for each path that is not
    permissible at a permissible vertex, the ones the radical line reads,
    and for no other path."""
    from brauercell.sft import SplitBasis
    built = []
    build = SplitBasis.module_vector
    monkeypatch.setattr(SplitBasis, "module_vector",
                        lambda self, v, ti: built.append((v, ti)) or build(self, v, ti))
    code, _ = run(capsys, "certify", "--flavor", "symplectic", "--r", "5", "--N", "1")
    assert code == 0
    split = SplitBasis(5, 1, "symplectic")
    read = [(v, ti) for v in split.basis.vertices if split.perm_pred(v)
            for ti in range(len(split.basis.paths[v]))
            if not split.path_permissible[(v, ti)]]
    assert read and built == read
    assert len(read) < sum(len(paths) for paths in split.basis.paths.values())


def test_image_rank_callers_build_no_algebra_elements(capsys, monkeypatch):
    """``dims`` and the F_p lines of ``certify`` hand ``image_rank`` the
    diagrams they hold: ``dims`` builds no ``AlgebraElement`` at all, and an
    F_p line adds none to what the certificate builds without it."""
    from brauercell.diagrams import AlgebraElement
    from brauercell.sft import SplitBasis, certify_sft

    built = [0]
    init = AlgebraElement.__init__

    def counting_init(self, *args, **kwargs):
        built[0] += 1
        init(self, *args, **kwargs)

    def count(job):
        built[0] = 0
        job()
        return built[0]

    monkeypatch.setattr(AlgebraElement, "__init__", counting_init)
    for flavor in ("symplectic", "orthogonal", "symmetric"):
        assert count(lambda: run(capsys, "dims", "--flavor", flavor, "--N", "2",
                                 "--r", "4")) == 0
    for flavor, n in (("symplectic", 1), ("orthogonal", 2)):
        split = SplitBasis(4, n, flavor)
        certify_sft(split)   # expands the cells it reads
        plain = count(lambda: certify_sft(split))
        assert plain > 0
        assert count(lambda: certify_sft(split, fields=(3, 5))) == plain
    split = SplitBasis(4, 2, "symmetric")
    certify_sft(split)
    plain = count(lambda: certify_sft(split))
    assert count(lambda: certify_sft(split, fields=(3, 5))) == plain
