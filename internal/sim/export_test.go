package sim

// CoreConfig exposes coreConfig to the external key tests.
var CoreConfig = coreConfig

// KindKeyUncached is KindFingerprint without its memo.
func (o Options) KindKeyUncached(k Kind) string { return o.key("core", k) }
