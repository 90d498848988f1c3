//go:build !linux

package main

// markTopDir is a no-op where the ext4 inode flag ioctls do not exist.
func markTopDir(string) {}
