pub fn noop() {}
