package main

import "os"

// scratchDir creates a directory that spill runs or page files will churn in
// and marks it as the top of a directory hierarchy where the file system
// knows the notion (ext4's chattr +T). The reason is repeatability, measured
// on this repository's build host: every spilling query creates a directory
// of a few hundred short-lived run files; ext4 places a directory next to
// its parent and skips inodes deleted in the last minute when it allocates,
// so without the mark every create scans the block group's recently deleted
// inodes, and the spill workload's wall time flips between two modes 1.9x
// apart depending on what earlier runs deleted. Under a marked parent the
// per-query directories spread over block groups and the cost stays at the
// low mode. Where the mark is unsupported the directory is used as it is.
func scratchDir(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	markTopDir(dir)
	return nil
}
