"""Golden outputs of the CLI paths that the benchmark digests do not cover.

Each case runs one command and compares a sha256 digest over the files it
writes (name and content, in name order) with the digest recorded from a
known-good build: the `bench` sweep with all three solvers, `masks` dumps
mid-rollout with and without `--block`, and the placements and traces that
`solve --solver sa` and `solve --solver greedy` write (their reports carry
wall time, so they are left out).  The free-greedy trace records every
ratio the scan chose as its step's `ar_next`.  A change that moves any of these bytes on purpose must record the
new digest and say why.
"""

import hashlib

import pytest

from stackfp.cli import main as cli_main
from stackfp.fileio import circuit_to_json, synth_instance

BENCH = ["bench", "--instances", "1", "--seeds", "2", "--tasks", "1,2,3",
         "--solvers", "greedy,sa,random", "--sa-iterations", "10"]
# the bench sweep's first instance, read back from its JSON file
ON_CIRCUIT = ["--circuit", "CIRCUIT", "--task", "3"]

# name -> (arguments, sha256 over the files written)
CASES = {
    "bench": (BENCH,
              "a4399ffc4afbe2cb7a28f823d64300414fa9dafc4002b8661f67b7b2f26b7c3d"),
    "masks_step0": (["masks", *ON_CIRCUIT, "--at-step", "0"],
                    "da148bf5930aca82d7adc245511e918a10df19fec2034bd2e2979b8586564ada"),
    "masks_step5": (["masks", *ON_CIRCUIT, "--at-step", "5"],
                    "2d5c4add5f86f8508ad4bcf3e44f13d237ec5bf84f4a7d0572acf8511ea63c62"),
    "masks_step5_block11": (["masks", *ON_CIRCUIT, "--at-step", "5", "--block", "11"],
                            "7ea923c168de4112232c4b39c01cb8e5fe091bfa33059d4d7cf7b0fe6739834a"),
    "solve_sa": (["solve", *ON_CIRCUIT, "--solver", "sa", "--seed", "1",
                  "--sa-iterations", "20"],
                 "54b1e0d61c461c9726a01ad3c7074dd2bba85ed3ef03cd5ccfdd48e735d27d19"),
    "solve_greedy": (["solve", *ON_CIRCUIT, "--solver", "greedy"],
                     "ec4fbf644f1b356ebffbdc0c42b16f4e780d063151d21415066867e52d007619"),
}
TIMED = (".report.csv", ".report.json")     # solve's reports hold wall time


def files_digest(paths) -> str:
    h = hashlib.sha256()
    for p in sorted(paths, key=lambda p: p.name):
        line = f"{p.name} {hashlib.sha256(p.read_bytes()).hexdigest()}\n"
        h.update(line.encode())
    return h.hexdigest()


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_bytes_match_recorded_digest(tmp_path, name):
    argv, digest = CASES[name]
    circuit, _ = synth_instance("synth00", 1000)
    path = tmp_path / "synth00.circuit.json"
    path.write_text(circuit_to_json(circuit))
    out = tmp_path / "out"
    argv = [str(path) if a == "CIRCUIT" else a for a in argv]
    assert cli_main([*argv, "--out", str(out)]) == 0
    files = [p for p in out.iterdir()
             if argv[0] != "solve" or not p.name.endswith(TIMED)]
    assert files
    assert files_digest(files) == digest, [p.name for p in files]
