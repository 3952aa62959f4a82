package trace

import "imca/internal/gluster"

// blocking is the Sync facade over fs, for sequential test scripts.
func blocking(fs gluster.FS) gluster.Sync { return gluster.Sync{FS: fs} }
