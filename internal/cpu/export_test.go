package cpu

// DecodeMemoSize exposes the decode memo's slot count to the external
// tests, which build programs whose PCs alias in it.
const DecodeMemoSize = decodeMemoSize
