"""The mutant catalogue: defects the test suite must catch, each with the tests that catch it.

Each entry names a file under `src/`, an exact text that occurs once in it,
the text that replaces it, and the pytest IDs (relative to the repository
root) that must fail once it is applied. `tools/run_mutants.py` applies
the entries one at a time to a copy of the tree; `tests/test_mutants.py`
checks that every old text still occurs exactly once and that pytest
collects every test ID, so a change that rewrites a mutated line or
renames a test restates its mutant here. It also checks the naming rule:
`spadeclip/<m>.py` is tested in `tests/test_<m>.py`, and at least one
kill ID of a mutant of `spadeclip/<m>.py` lives in that file.
"""

from __future__ import annotations

from typing import NamedTuple


class Mutant(NamedTuple):
    id: str
    file: str  # relative to src/
    old: str
    new: str
    kills: tuple[str, ...]  # test IDs that must fail on the mutant


MUTANTS = [
    Mutant(
        "lower clamp dropped",
        "spadeclip/feasible.py",
        "out = np.maximum(v, model.lo, out=out)",
        "out = np.positive(v, out=out)",
        ("tests/test_feasible.py::test_project_gamma_equals_three_mask_formula_bitwise",),
    ),
    Mutant(
        "clamp operands swapped: a reliable -0.0 comes back +0.0",
        "spadeclip/feasible.py",
        "out = np.maximum(v, model.lo, out=out)\n    return np.minimum(out, model.hi, out=out)",
        "out = np.maximum(model.lo, v, out=out)\n    return np.minimum(model.hi, out, out=out)",
        (
            "tests/test_feasible.py::test_project_gamma_equals_three_mask_formula_bitwise",
            "tests/test_declip_properties.py::test_declip_signal_invariants",
        ),
    ),
    Mutant(
        "frame hi taken from lo",
        "spadeclip/segmentation.py",
        "hi=_frames_of(model.hi, plan, np.inf)",
        "hi=_frames_of(model.lo, plan, np.inf)",
        ("tests/test_segmentation.py::test_restrict_frames_padding_is_free",),
    ),
    Mutant(
        "tail padding pinned to a reliable 0",
        "spadeclip/segmentation.py",
        "lo=_frames_of(model.lo, plan, -np.inf),\n        hi=_frames_of(model.hi, plan, np.inf),",
        "lo=_frames_of(model.lo, plan, 0.0),\n        hi=_frames_of(model.hi, plan, 0.0),",
        (
            "tests/test_segmentation.py::test_restrict_frames_padding_is_free",
            "tests/test_pipeline.py::test_declip_signal_median_sdr_gain_over_short_tones",
        ),
    ),
    Mutant(
        "clip-free rule counts free samples as clipped",
        "spadeclip/solvers.py",
        "np.flatnonzero(model.mask_clipped.any(axis=-1))",
        "np.flatnonzero(~model.mask_r.all(axis=-1))",
        ("tests/test_solvers.py::test_solve_batch_transforms_nothing_without_a_clipped_sample",),
    ),
    Mutant(
        "declip_signal without its final projection",
        "spadeclip/pipeline.py",
        "restored = project_gamma(overlap_add(frames, plan), model)",
        "restored = overlap_add(frames, plan)",
        (
            "tests/test_pipeline.py::test_pipeline_batch_equals_frames_solved_alone",
            "tests/test_acceptance.py::test_criterion_8_feasibility_and_passthrough[Variant.ASPADE]",
            "tests/test_acceptance.py::test_criterion_8_feasibility_and_passthrough[Variant.SSPADE_ORIG]",
            "tests/test_acceptance.py::test_criterion_8_feasibility_and_passthrough[Variant.SSPADE_DR]",
        ),
    ),
    Mutant(
        "reference zero on every clipped sample accepted",
        "spadeclip/pipeline.py",
        "if reference is not None and clipped.any() and not ref[clipped].any():",
        "if False:",
        ("tests/test_pipeline.py::test_declip_signal_rejects_a_reference_zero_on_every_clipped_sample",),
    ),
    Mutant(
        "even P: Nyquist weighted sqrt(2/P)",
        "spadeclip/frames.py",
        "if p % 2 == 0:",
        "if p % 2 == 1:",
        (
            "tests/test_frames.py::test_analyze_known_values",
            "tests/test_cli.py::test_verify_subcommand_passes",
        ),
    ),
    Mutant(
        "redundancy ignored",
        "spadeclip/frames.py",
        "dft_len=int(p_exact)",
        "dft_len=signal_len",
        ("tests/test_frames.py::test_make_frame_unitary",),
    ),
    Mutant(
        "analysis weights added",
        "spadeclip/frames.py",
        "c *= self._weights",
        "c += self._weights",
        (
            "tests/test_frames.py::test_analyze_known_values",
            "tests/test_cli.py::test_verify_subcommand_passes",
        ),
    ),
    Mutant(
        "hop 0 accepted",
        "spadeclip/segmentation.py",
        "if self.hop < 1 or",
        "if self.hop < 0 or",
        ("tests/test_segmentation.py::test_plan_constructor_validates[8-4-0]",),
    ),
    Mutant(
        "overlap-add not normalized",
        "spadeclip/segmentation.py",
        "return num[: plan.total_len] / den[: plan.total_len]",
        "return num[: plan.total_len]",
        (
            "tests/test_segmentation.py::test_overlap_add_matches_per_frame_loop",
            "tests/test_segmentation.py::test_round_trip_identity",
        ),
    ),
    Mutant(
        "verify always exits 0",
        "spadeclip/cli.py",
        "return EXIT_OK if all(r.passed for r in reports) else EXIT_VERIFY_FAILED",
        "return EXIT_OK",
        ("tests/test_cli.py::test_verify_exits_1_on_a_check_over_its_tolerance",),
    ),
    Mutant(
        "declip keeps its WAV when the CSV cannot be written",
        "spadeclip/cli.py",
        "os.remove(args.output)",
        "None",
        ("tests/test_cli.py::test_declip_that_cannot_write_leaves_neither_file[--csv]",),
    ),
    Mutant(
        "declip writes its CSV over its WAV",
        "spadeclip/cli.py",
        '_refuse_same_file(args, "csv", "output", "input")',
        '_refuse_same_file(args, "csv", "input")',
        ("tests/test_cli.py::test_declip_refuses_a_csv_at_its_output_path",),
    ),
    Mutant(
        "declip writes its CSV over its input",
        "spadeclip/cli.py",
        '_refuse_same_file(args, "csv", "output", "input")',
        '_refuse_same_file(args, "csv", "output")',
        ("tests/test_cli.py::test_declip_refuses_a_csv_at_its_input_path",),
    ),
    Mutant(
        "bench writes its CSV over its input",
        "spadeclip/cli.py",
        '_refuse_same_file(args, "output", "input")',
        "pass",
        ("tests/test_cli.py::test_bench_refuses_an_output_at_its_input_path",),
    ),
    Mutant(
        "an I/O error exits as invalid input",
        "spadeclip/cli.py",
        "return EXIT_IO if isinstance(exc, OSError) else EXIT_INVALID",
        "return EXIT_INVALID",
        (
            "tests/test_cli.py::test_declip_missing_input",
            "tests/test_cli.py::test_declip_that_cannot_write_leaves_neither_file[--output]",
        ),
    ),
    Mutant(
        "the error line goes to stdout",
        "spadeclip/cli.py",
        'print(f"error: {exc}", file=sys.stderr)',
        'print(f"error: {exc}")',
        ("tests/test_cli.py::test_declip_missing_input",),
    ),
    Mutant(
        "A-SPADE takes S-SPADE's w update",
        "spadeclip/solvers.py",
        "if aspade:",
        "if False:",
        (
            "tests/test_solvers.py::test_first_step_matches_dense_matrix_reference[Variant.ASPADE]",
            "tests/test_golden.py::test_matches_golden[aspade-2-1]",
        ),
    ),
    Mutant(
        "S-SPADE-DR dual sign flipped",
        "spadeclip/solvers.py",
        "u += dz\n    u -= x",
        "u -= dz\n    u += x",
        (
            "tests/test_solvers.py::test_first_step_matches_dense_matrix_reference[Variant.SSPADE_DR]",
            "tests/test_acceptance.py::test_criterion_5_unitary_equivalence",
            "tests/test_golden.py::test_matches_golden[sspade-dr-2-1]",
        ),
    ),
    Mutant(
        "k advanced one iteration early",
        "spadeclip/solvers.py",
        "k = params.sparsity(state.i)",
        "k = params.sparsity(state.i + 1)",
        (
            "tests/test_solvers.py::test_zbar_sparsity_bound_every_variant",
            "tests/test_golden.py::test_matches_golden[aspade-1-1]",
        ),
    ),
    Mutant(
        "threshold tie keeps one entry too few",
        "spadeclip/solvers.py",
        "np.cumsum(tied, axis=-1) <= free",
        "np.cumsum(tied, axis=-1) < free",
        (
            "tests/test_solvers.py::test_hard_threshold_tie_keeps_lower_index",
            "tests/test_solvers.py::test_hard_threshold_matches_stable_argsort",
        ),
    ),
    Mutant(
        "A-SPADE loses its schedule",
        "spadeclip/solvers.py",
        "Variant.ASPADE: (4, 1),",
        "Variant.ASPADE: (1, 1),",
        ("tests/test_solvers.py::test_solver_params_takes_each_variants_schedule",),
    ),
    Mutant(
        "auto theta at a peak equal to delta",
        "spadeclip/feasible.py",
        "return peak if peak > delta_detect else np.inf",
        "return peak if peak >= delta_detect else np.inf",
        ("tests/test_feasible.py::test_auto_theta_is_the_peak_above_delta_only",),
    ),
    Mutant(
        "norm scale past the float range",
        "spadeclip/metrics.py",
        "exp = max(exp, -1023)",
        "exp = max(exp, -1024)",
        ("tests/test_metrics.py::test_sdr_known_values",),
    ),
    Mutant(
        "33-bit PCM accepted",
        "spadeclip/wavio.py",
        "_BITS = {PCM: range(1, 33)",
        "_BITS = {PCM: range(1, 34)",
        ("tests/test_wavio.py::test_read_wav_names_what_it_rejects[pcm33]",),
    ),
    Mutant(
        "PCM bytes placed low in the int32",
        "spadeclip/wavio.py",
        "word[:, 4 - width + j] = raw[:, j]",
        "word[:, j] = raw[:, j]",
        (
            "tests/test_wavio.py::test_pcm_widths_decode_to_the_grid[24]",
            "tests/test_wavio.py::test_read_wav_reads_rifx_as_its_riff_twin[pcm24]",
        ),
    ),
    Mutant(
        "8-bit PCM read as signed",
        "spadeclip/wavio.py",
        "word[:, 3] ^= 0x80 if width == 1 else 0",
        "word[:, 3] ^= 0x00 if width == 1 else 0",
        ("tests/test_wavio.py::test_pcm_widths_decode_to_the_grid[8]",),
    ),
    Mutant(
        "pad byte after an odd chunk ignored",
        "spadeclip/wavio.py",
        "pos += 8 + size + size % 2",
        "pos += 8 + size",
        (
            "tests/test_wavio.py::test_read_wav_skips_unknown_chunks",
            "tests/test_wavio.py::test_read_wav_decodes_as_scipy",
        ),
    ),
]
