package trace

// SampleTrace exposes the package's small sample trace to the external
// test package.
var SampleTrace = sampleTrace
