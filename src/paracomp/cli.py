"""Command-line interface.

Subcommands: run (any pipeline mode), eval (score predictions against
gold), synth (generate a synthetic language), tag (train/apply the HMM
tagger), rules-dump (inspect learned affix rules).
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

from .config import MODES, Config, build_config, parse_config_file
from .corpus_io import load_corpus
from .pipeline import StageError, dump_pipeline_rules, run_pipeline
from .synth import generate_language
from .tagger import load_model, save_model, tag_corpus, train_hmm, write_tagged

# Every Config field except mode is a flag; field types are strings
# because config.py postpones annotations.
_CONFIG_FLAGS = {
    field.name: field.type for field in dataclasses.fields(Config)
    if field.name != "mode"
}


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="key = value config file")
    for name, kind in _CONFIG_FLAGS.items():
        flag = f"--{name.replace('_', '-')}"
        if kind == "bool":
            parser.add_argument(
                flag, action=argparse.BooleanOptionalAction, default=None
            )
        else:
            parser.add_argument(
                flag, type={"int": int, "float": float}[kind], default=None
            )


def _config_from_args(args: argparse.Namespace, mode: str | None = None):
    file_values = parse_config_file(args.config) if args.config else None
    overrides = {}
    for name in _CONFIG_FLAGS:
        value = getattr(args, name, None)
        if value is not None:
            overrides[name] = value
    if mode is not None:
        overrides["mode"] = mode
    return build_config(file_values, overrides)


def _cmd_run(args: argparse.Namespace) -> int:
    config = _config_from_args(args, mode=args.mode)
    result = run_pipeline(
        config,
        corpus_path=args.corpus,
        lexicon_path=args.lemmas,
        gold_path=args.gold,
        out_path=args.out,
        predictions_path=args.predictions,
    )
    if args.report:
        with open(args.report, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(result.report)
    sys.stdout.write(result.report)
    return 0


def _cmd_synth(args: argparse.Namespace) -> int:
    language = generate_language(
        slots=args.slots,
        lemmas=args.lemmas,
        classes=args.classes,
        tokens=args.tokens,
        seed=args.seed,
    )
    corpus_path, lexicon_path, gold_path = language.write(args.out_dir)
    print(f"corpus: {corpus_path} ({language.token_count} tokens)")
    print(f"lemmas: {lexicon_path} ({len(language.lexicon)})")
    print(f"gold: {gold_path}")
    return 0


def _cmd_tag(args: argparse.Namespace) -> int:
    corpus, _ = load_corpus(args.corpus)
    if args.model_in:
        model = load_model(args.model_in)
    else:
        config = _config_from_args(args)
        model = train_hmm(
            corpus,
            states=config.hmm_states,
            iterations=config.hmm_iterations,
            seed=config.seed,
            unk_threshold=config.unk_threshold,
        )
    if args.model_out:
        save_model(model, args.model_out)
    tags = tag_corpus(model, corpus)
    write_tagged(corpus, tags, args.out)
    print(f"tagged {len(tags)} tokens with {model.states} states -> {args.out}")
    return 0


def _cmd_rules_dump(args: argparse.Namespace) -> int:
    config = _config_from_args(args, mode=args.mode)
    result = run_pipeline(
        config,
        corpus_path=args.corpus,
        lexicon_path=args.lemmas,
        gold_path=args.gold,
    )
    dump_pipeline_rules(result, args.out)
    print(f"wrote rules for {result.slot_count} slots -> {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="paracomp",
        description="Unsupervised morphological paradigm completion",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a pipeline mode")
    run.add_argument("--mode", required=True, choices=MODES)
    run.add_argument("--corpus", help="tokenized corpus, one sentence per line")
    run.add_argument("--lemmas", help="lemma list, one per line")
    run.add_argument("--gold", help="gold table for scoring (TSV)")
    run.add_argument("--out", help="write predictions here (TSV)")
    run.add_argument("--predictions", help="existing predictions (eval mode)")
    run.add_argument("--report", help="write the run report here")
    _add_config_flags(run)
    run.set_defaults(func=_cmd_run)

    ev = sub.add_parser("eval", help="score predictions against a gold table")
    ev.add_argument("--gold", required=True)
    ev.add_argument("--predictions", required=True)
    ev.add_argument("--report", help="write the report here")
    _add_config_flags(ev)
    ev.set_defaults(func=_cmd_run, mode="eval", corpus=None, lemmas=None, out=None)

    synth = sub.add_parser("synth", help="generate a synthetic language")
    synth.add_argument("--slots", type=int, default=4)
    synth.add_argument("--lemmas", type=int, default=30)
    synth.add_argument("--classes", type=int, default=2)
    synth.add_argument("--tokens", type=int, default=20000)
    synth.add_argument("--seed", type=int, default=7)
    synth.add_argument("--out-dir", required=True)
    synth.set_defaults(func=_cmd_synth)

    tag = sub.add_parser("tag", help="train/apply the HMM tagger")
    tag.add_argument("--corpus", required=True)
    tag.add_argument("--out", required=True, help="token<TAB>state dump")
    tag.add_argument("--model-in", help="decode with a saved model")
    tag.add_argument("--model-out", help="save the trained model (.npz)")
    _add_config_flags(tag)
    tag.set_defaults(func=_cmd_tag)

    rules = sub.add_parser("rules-dump", help="dump learned affix rules")
    rules.add_argument("--mode", default="pcs-iii",
                       choices=("pcs-iii", "pcs-ii+iii", "conll17-k"))
    rules.add_argument("--corpus")
    rules.add_argument("--lemmas", required=True)
    rules.add_argument("--gold")
    rules.add_argument("--out", required=True)
    _add_config_flags(rules)
    rules.set_defaults(func=_cmd_rules_dump)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (StageError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
