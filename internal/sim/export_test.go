package sim

// ShelvedSources is how many released sources wait on the shelf, for the
// external tests that drive whole models.
func ShelvedSources() int { return sources.Len() }
