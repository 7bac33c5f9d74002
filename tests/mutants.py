"""The mutant catalogue: deliberately broken variants of the package, each
with the tier-1 tests that must fail on it, so a refactor that leaves a
check without teeth shows up.

A mutant names a file and one or more edits: an exact old text, which must
occur once in that file, and the new text that replaces it. Run

    python tests/mutants.py [NAME ...]

from anywhere to copy ``src/``, ``tests/`` and ``pyproject.toml`` to a
temporary directory, check that every listed test passes there unmutated,
then apply one mutant at a time, run only its tests in one ``pytest``
process, and print ``killed`` (each listed test failed) or ``SURVIVED``.
The exit status is 1 when a mutant survived and 2 when the unmutated copy
fails. pytest does not collect this file; ``tests/test_mutants.py`` checks
that every old text still occurs exactly once.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent

_ENGINE, _MODELS = "src/specdec/engine.py", "src/specdec/models.py"
_HARNESS, _BEAM = "src/specdec/harness.py", "src/specdec/beam.py"
_REFUSAL = ('    if config.policy.is_argmax and config.lenience < 1.0:\n'
            '        raise ValueError("argmax-lenient decoding has no exact law to fit")\n')
_BLOCK_DRAW = "    u = rng.uniform_block(rows * (2 * gamma + 1)).reshape(rows, 2 * gamma + 1)\n"
_CANDIDATES = "[seq[start:n0 + i] for i in range(gamma + 1)]"
_CW = "tests/test_context_window.py::"
_ONE_LIST = _CW + "TestOneListPerStep::"
_DIGEST = "tests/test_decode_digests.py::test_decode_digest_unchanged"
_REFUSED = ("tests/test_engine.py::TestSpeculativeSteps::"
            "test_argmax_lenient_refused_before_any_draw_or_call")
_NO_RUNS = "tests/test_harness.py::TestSimulateWalltime::test_no_runs_or_tokens_rejected"
_NO_PAIRS = "tests/test_harness.py::TestRandomPairSweeps::test_no_pairs_rejected"
_BEAM_STD = "tests/test_beam.py::TestStandardBeamSearch::"
_BEAM_REQ = "tests/test_beam.py::TestRequestChecks::"
_PROMPT_CHECK = '    check_tokens(prompt, target.vocab_size, "prompt")\n'
_PAIRS_CHECK = '    if pairs < 1:\n        raise ValueError(f"pairs must be >= 1, got {pairs}")\n'


class Mutant(NamedTuple):
    name: str
    file: str  # relative to the repository root
    edits: tuple[tuple[str, str], ...]  # (old, new), applied in order
    tests: tuple[str, ...]  # pytest node ids, each of which must fail


MUTANTS = (
    # Helpers with one shape: beam search's _step, the lenient correction, _descending.
    Mutant("beam-ties-by-score-alone", _BEAM,
           (("key=lambda b: (-b.score, b.tokens)", "key=lambda b: -b.score"),),
           (_BEAM_STD + "test_ties_across_beams_break_lexicographically",)),
    Mutant("beam-keeps-one-more", _BEAM, (("[:width]", "[:width + 1]"),),
           (_BEAM_STD + "test_ties_break_lexicographically",
            "tests/test_beam.py::TestSpeculativeBeamSearch::"
            "test_same_model_same_width_accepts_everything")),
    Mutant("lenient-through-last-token-dist", _ENGINE,
           (("    if argmax_lenient and n < gamma:", "    if False:"),),
           ("tests/test_engine.py::TestSpeculativeStep::test_one_variate_block_per_step"
            "[argmax-lenient-1]",
            _DIGEST + "[ngram3/2-argmax-lenient]")),
    Mutant("descending-no-row-offset", "src/specdec/distmath.py",
           (("    order += np.arange(0, p.size, p.shape[-1])[:, None]\n", ""),),
           ("tests/test_engine.py::TestSpeculativeSteps::test_block_equals_scalar_loop",
            "tests/test_engine.py::TestSpeculativeSteps::test_every_pair_and_policy[None-1.0]")),
    # Requests are checked before any model call or draw.
    Mutant("beam-standard-prompt-unchecked", _BEAM,
           (('>= 1")\n' + _PROMPT_CHECK, '>= 1")\n'),),
           (_BEAM_REQ + "test_prompt_outside_vocab_refused[outside]",
            _BEAM_REQ + "test_prompt_outside_vocab_refused[non-integer]")),
    Mutant("beam-speculative-prompt-unchecked", _BEAM,
           (("    check_pair(target, draft)\n" + _PROMPT_CHECK, "    check_pair(target, draft)\n"),),
           (_BEAM_REQ + "test_prompt_outside_vocab_refused[outside]",
            _BEAM_REQ + "test_prompt_outside_vocab_refused[non-integer]")),
    Mutant("beam-pair-unchecked", _BEAM, (("    check_pair(target, draft)\n", ""),),
           (_BEAM_REQ + "test_vocab_mismatch_refused",)),
    Mutant("exactness-pairs-unchecked", _HARNESS,
           ((_PAIRS_CHECK + "    rng = RandomStream(seed)\n", "    rng = RandomStream(seed)\n"),),
           (_NO_PAIRS + "[0-exactness]", _NO_PAIRS + "[-3-exactness]")),
    Mutant("rejection-pairs-unchecked", _HARNESS,
           ((_PAIRS_CHECK + "    rng, violations", "    rng, violations"),),
           (_NO_PAIRS + "[0-rejection]", _NO_PAIRS + "[-3-rejection]")),
    Mutant("verify-vocab-for-every-suite", "src/specdec/cli.py",
           (('    if args.suite != "geometric":', "    if True:"),),
           ("tests/test_cli.py::TestVerify::test_geometric_ignores_vocab",)),
    Mutant("kept-check-hasattr", _ENGINE,
           (("not isinstance(prefix, list)", 'not hasattr(prefix, "append")'),),
           (_ONE_LIST + "test_a_count_needs_a_list_not_a_deque",)),
    # One list per speculative step.
    Mutant("start-off-by-one", _ENGINE,
           (("max(0, n0 - window)", "max(0, n0 - window - 1)"),),
           (_ONE_LIST + "test_target_candidates_are_slices_of_the_list[None-0]",
            _ONE_LIST + "test_target_candidates_are_slices_of_the_list[39-2]",
            _CW + "TestEngineWindowsAreInvisible::test_models_see_only_their_window"
                  "[window-0-target]")),
    Mutant("candidates-one-token-long", _ENGINE,
           ((_CANDIDATES, "[seq[n0 + i - 1:n0 + i] for i in range(gamma + 1)]"),),
           (_ONE_LIST + "test_target_candidates_are_slices_of_the_list[None-2]",
            _DIGEST + "[ngram3/2-identity]")),
    Mutant("cut-leaves-one-draft", _ENGINE,
           (("        del seq[n0:]\n", "        del seq[n0 + 1:]\n"),),
           (_ONE_LIST + "test_target_candidates_are_slices_of_the_list[39-None]",
            _DIGEST + "[copy-identity]")),
    Mutant("draft-count-off-by-one", _ENGINE,
           (("n0 + i - 1 if i else kept", "n0 + i if i else kept"),),
           (_ONE_LIST + "test_decode_drafts_into_its_own_list[ngram2]",
            _ONE_LIST + "test_without_a_count_the_draft_gets_a_copy")),
    Mutant("target-reads-whole-list", _ENGINE,
           ((_CANDIDATES, "[seq[:n0 + i] for i in range(gamma + 1)]"),),
           (_CW + "TestEngineWindowsAreInvisible::test_overclaiming_target_changes_decode",
            _ONE_LIST + "test_target_candidates_are_slices_of_the_list[None-2]")),
    Mutant("block-tail-not-a-list", _ENGINE,
           (("base = list(prefix[0 if window is None else max(0, len(prefix) - window + read):])",
             "base = prefix[0 if window is None else max(0, len(prefix) - window + read):]"),),
           (_CW + "TestEngineWindowsAreInvisible::test_block_takes_a_tuple_or_array_prefix"
                  "[windowed]",)),
    # The block kernel refuses argmax-lenient decoding before any draw.
    Mutant("block-refusal-removed", _ENGINE, ((_REFUSAL, ""),),
           (_REFUSED + "[0]", _REFUSED + "[5]")),
    Mutant("block-refusal-after-draw", _ENGINE,
           ((_REFUSAL, ""), (_BLOCK_DRAW, _BLOCK_DRAW + _REFUSAL.replace("config.", ""))),
           (_REFUSED + "[0]", _REFUSED + "[5]")),
    # One fork-point rule for whole-prefix models.
    Mutant("copy-cap-one-past", _MODELS,
           (("kept = min(kept, len(path))", "kept = min(kept, len(path) + 1)"),),
           ("tests/test_models.py::TestIncrementalCopy::test_kept_counts_match_oracle_bitwise",)),
    Mutant("copy-count-uncapped", _MODELS,
           (("kept = min(kept, len(path))", "kept = kept"),),
           ("tests/test_models.py::TestIncrementalCopy::test_kept_counts_match_oracle_bitwise",)),
    # Older checks.
    Mutant("copy-rfind", _MODELS, (("rev.find(rev[:guess], 1)", "rev.rfind(rev[:guess], 1)"),),
           ("tests/test_models.py::TestIncrementalCopy::test_call_sequences_match_oracle_bitwise",
            _DIGEST + "[copy-identity]")),
    Mutant("groups-last-column", _ENGINE,
           (("new[1:] = (ranked[1:] != ranked[:-1]).any(axis=1)",
             "new[1:] = ranked[1:, -1] != ranked[:-1, -1]"),),
           ("tests/test_engine.py::TestSpeculativeSteps::test_block_equals_scalar_loop",
            "tests/test_engine.py::TestSpeculativeSteps::"
            "test_window_zero_pair_across_forced_blocks[1.0]")),
    Mutant("residual-unclamped", "src/specdec/distmath.py",
           (("    np.maximum(raw, 0.0, out=raw)\n", ""),),
           ("tests/test_distmath.py::TestResidual::test_basic",
            "tests/test_distmath.py::TestResidual::test_support_exactly_where_p_exceeds_lq")),
    Mutant("optimal-gamma-takes-ties", "src/specdec/analysis.py",
           (("        if f > best_factor:\n", "        if f >= best_factor:\n"),),
           ("tests/test_analysis.py::TestOptimalGamma::test_smallest_tie_wins",)),
    # The harness checks its inputs before any step.
    Mutant("harness-context-unchecked", _HARNESS,
           (("    check_tokens([t for c in context_set for t in c], target.vocab_size, "
             '"context")\n', ""),),
           ("tests/test_harness.py::TestContextTokens::test_equivalence_refuses[unseen]",
            "tests/test_harness.py::TestContextTokens::test_equivalence_refuses[non-integer]")),
    Mutant("simulate-runs-unchecked", _HARNESS,
           (("if n_tokens < 1 or n_runs < 1:", "if n_tokens < 1:"),),
           (_NO_RUNS + "[100-0]", _NO_RUNS + "[100--1]")),
)


def mutated(mutant: Mutant, text: str) -> str:
    for old, new in mutant.edits:
        if text.count(old) != 1:
            raise ValueError(f"{mutant.name}: {old!r} occurs {text.count(old)} times")
        text = text.replace(old, new)
    return text


def _failures(tree: Path, tests) -> set[str]:
    """The node ids among ``tests`` that fail (or error) in one pytest run in ``tree``."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    out = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                          "-rfE", *tests], cwd=tree, env=env, capture_output=True, text=True)
    if out.returncode not in (0, 1):  # a usage error or an id that names no test
        raise RuntimeError(out.stdout[-2000:] + out.stderr[-2000:])
    return {line.split(" ", 1)[1].split(" - ", 1)[0] for line in out.stdout.splitlines()
            if line.startswith(("FAILED ", "ERROR "))}


def main(names: list[str]) -> int:
    chosen = [m for m in MUTANTS if not names or m.name in names]
    if unknown := set(names) - {m.name for m in MUTANTS}:
        raise SystemExit(f"unknown mutants: {sorted(unknown)}")
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp)
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, tree / part,
                            ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
        shutil.copy(ROOT / "pyproject.toml", tree)
        if failing := _failures(tree, sorted({t for m in chosen for t in m.tests})):
            print("unmutated copy fails:", *sorted(failing), sep="\n  ")
            return 2
        survived = 0
        for m in chosen:
            path = tree / m.file
            original = path.read_text()
            path.write_text(mutated(m, original))
            try:
                missed = sorted(set(m.tests) - _failures(tree, m.tests))
            finally:
                path.write_text(original)
            survived += bool(missed)
            print(f"{'SURVIVED' if missed else 'killed':8} {m.name}",
                  *(f"  passed: {t}" for t in missed), sep="\n", flush=True)
        print(f"{len(chosen) - survived} of {len(chosen)} killed")
        return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
