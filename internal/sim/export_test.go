package sim

// CoreConfig exposes coreConfig to the external key tests.
var CoreConfig = coreConfig
