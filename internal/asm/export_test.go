package asm

// SampleSrc is TestParseSample's listing, exported to the external fuzz
// target's seed corpus.
const SampleSrc = sampleSrc
