"""Training the HMM tagger on annotated references and decoding new ones.

Run:  python demos/04_train_and_tag.py
"""

import random

from citeforge import align_training, annotate, tag_reference, train_hmm, viterbi
from citeforge.styles import load_builtin_styles
from citeforge.synth import random_corpus

styles = load_builtin_styles()[:5]
rng = random.Random(3)

# Training data: every (entry, style) pair yields one annotated reference;
# alignment turns it into a token sequence with one label per token.
train_refs = [annotate(e, s).anno_ref for e in random_corpus(rng, 300) for s in styles]
corpus = [align_training(anno) for anno in train_refs]
sample = corpus[0]
print("one training sequence:")
for tok, label in list(zip(sample.tokens, sample.labels))[:8]:
    print(f"  {tok:<16} {label}")

model = train_hmm(corpus, alpha=0.1)
print(f"\ntrained on {len(corpus)} references: {len(model.states)} states, "
      f"vocabulary of {len(model.vocab)} symbols")

# Decode an unseen reference. Viterbi returns the most probable label
# sequence; equal-label runs concatenate into extracted fields.
unseen = random_corpus(random.Random(99), 1)[0]
reference = annotate(unseen, styles[1]).bib_ref
print(f"\nreference: {reference}")
fields, log_prob = tag_reference(model, reference)
print(f"decoded (log-probability {log_prob:.2f}):")
for field in fields:
    print(f"  {field.label:<12} {field.value}")

# The raw label sequence is available too.
seq, _ = viterbi(model, align_training(annotate(unseen, styles[1]).anno_ref).tokens)
agreement = sum(
    a == b for a, b in zip(seq.labels, align_training(annotate(unseen, styles[1]).anno_ref).labels)
)
print(f"\ntoken labels correct on this reference: {agreement}/{len(seq.labels)}")
