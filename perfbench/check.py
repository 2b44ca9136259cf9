"""Output check applied to every run's written predictions."""

from __future__ import annotations

from paracomp import best_match_accuracy, load_gold, load_lexicon, read_predictions


def check_predictions(record: dict, paths: dict, predictions_path: str) -> list[str]:
    """Problems with one run's prediction file; empty when it passes.

    Every seed lemma, and nothing else, has exactly ``slot_count`` cells,
    and re-scoring the file reproduces the run's best-match accuracies.
    The caller compares the file's sha256 across runs.
    """
    problems = []
    predictions = read_predictions(predictions_path)
    seeds = load_lexicon(paths["lemmas"])
    slot_count = record["slot_count"]
    short = [lemma for lemma in seeds
             if len(predictions.get(lemma, {})) != slot_count]
    if short:
        problems.append(
            f"{len(short)} seed lemmas lack exactly {slot_count} cells, "
            f"e.g. {short[0]!r}"
        )
    extra = set(predictions) - set(seeds)
    if extra:
        problems.append(f"{len(extra)} predicted lemmas are not seed lemmas")
    scores = best_match_accuracy(load_gold(paths["gold"]), predictions)
    if (scores.macro, scores.micro) != (record["bmacc_macro"], record["bmacc_micro"]):
        problems.append(
            f"re-scored bmacc {scores.macro}/{scores.micro} differs from the "
            f"run's {record['bmacc_macro']}/{record['bmacc_micro']}"
        )
    return problems
